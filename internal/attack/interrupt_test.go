package attack

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/testutil"
)

// hookOracle runs hook just before answering its n-th query, so a test
// can end an attack's context at an exact point of the DIP loop.
type hookOracle struct {
	Oracle
	n, seen int
	hook    func()
}

func (o *hookOracle) Query(in []bool) []bool {
	if o.seen++; o.seen == o.n {
		o.hook()
	}
	return o.Oracle.Query(in)
}

// interruptVariant is one attack built on the DIP loop. run reports
// whether the attack returned a result, its status, and its error.
type interruptVariant struct {
	name string
	fx   *fixture
	run  func(o Oracle, opt SATOptions) (bool, Status, error)
}

// interruptVariants covers every DIP-loop attack on a lock that needs
// more than three DIPs: the exact attack (sequential and 2-worker
// portfolio) and AppSAT on c432/8x8/432, the one-hot attack on the
// routing-only lock.
func interruptVariants(t *testing.T) []interruptVariant {
	t.Helper()
	c432 := rilFixture(t, c432Profile(t), core.Size8x8, 432)
	routing, hints := routingOnlyFixture(t)
	exact := func(portfolio int) func(Oracle, SATOptions) (bool, Status, error) {
		return func(o Oracle, opt SATOptions) (bool, Status, error) {
			opt.Portfolio = portfolio
			res, err := SATAttack(c432.locked, c432.keyPos, o, opt)
			if res == nil {
				return false, 0, err
			}
			return true, res.Status, err
		}
	}
	appsat := func(o Oracle, opt SATOptions) (bool, Status, error) {
		aopt := DefaultAppSAT()
		aopt.Timeout, aopt.Context = opt.Timeout, opt.Context
		if opt.MaxIterations > 0 {
			aopt.DIPsPerRound, aopt.MaxRounds = opt.MaxIterations, 1
		}
		res, err := AppSAT(c432.locked, c432.keyPos, o, aopt)
		if res == nil {
			return false, 0, err
		}
		return true, res.Status, err
	}
	onehot := func(o Oracle, opt SATOptions) (bool, Status, error) {
		res, err := SATAttackOneHot(routing.locked, routing.keyPos, hints, o, opt)
		if res == nil {
			return false, 0, err
		}
		return true, res.SAT.Status, err
	}
	return []interruptVariant{
		{"sat", c432, exact(0)},
		{"sat/portfolio2", c432, exact(2)},
		{"appsat", c432, appsat},
		{"onehot", routing, onehot},
	}
}

// TestInterruptedByCancel cancels each attack's context just before
// its third oracle answer: the attack must stop at the next DIP
// boundary with no result and an error wrapping both ErrInterrupted
// and context.Canceled — never as a Timeout verdict.
func TestInterruptedByCancel(t *testing.T) {
	for _, v := range interruptVariants(t) {
		ctx, cancel := context.WithCancel(context.Background())
		o := &hookOracle{Oracle: v.fx.oracle(t), n: 3, hook: cancel}
		got, st, err := v.run(o, SATOptions{Timeout: time.Minute, Context: ctx})
		cancel()
		if got || !errors.Is(err, ErrInterrupted) || !errors.Is(err, context.Canceled) {
			t.Errorf("%s: result=%v status=%v err=%v, want no result and ErrInterrupted wrapping context.Canceled",
				v.name, got, st, err)
		}
		if o.seen != 3 {
			t.Errorf("%s: %d oracle queries, want the attack to stop right after the 3rd", v.name, o.seen)
		}
	}
}

// TestInterruptedByDeadline lets each attack's context deadline pass
// while its third oracle query is outstanding: the error must wrap
// ErrInterrupted and context.DeadlineExceeded.
func TestInterruptedByDeadline(t *testing.T) {
	for _, v := range interruptVariants(t) {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		o := &hookOracle{Oracle: v.fx.oracle(t), n: 3, hook: func() { <-ctx.Done() }}
		got, st, err := v.run(o, SATOptions{Timeout: time.Minute, Context: ctx})
		cancel()
		if got || !errors.Is(err, ErrInterrupted) || !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: result=%v status=%v err=%v, want no result and ErrInterrupted wrapping context.DeadlineExceeded",
				v.name, got, st, err)
		}
	}
}

// TestOwnBudgetIsTimeout: the attack's own budget ends a run as Status
// Timeout — the paper's ∞ — with a nil error, even with a live context
// attached. The DIP cap (MaxIterations; AppSAT's rounds) is exact; the
// wall-clock budget is exercised on a lock too hard to finish in it.
func TestOwnBudgetIsTimeout(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, v := range interruptVariants(t) {
		got, st, err := v.run(v.fx.oracle(t), SATOptions{Timeout: time.Minute, Context: ctx, MaxIterations: 2})
		if !got || st != Timeout || err != nil {
			t.Errorf("%s: DIP cap: result=%v status=%v err=%v, want a Timeout result", v.name, got, st, err)
		}
	}

	hard, err := core.Lock(smallCircuit(t, 300, 6), core.Options{Blocks: 3, Size: core.Size8x8x8, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	oracle := oracleFor(t, hard.Locked, hard.KeyInputPos, hard.Key)
	budget := 300 * time.Millisecond
	sr, err := SATAttack(hard.Locked, hard.KeyInputPos, oracle, SATOptions{Timeout: budget, Context: ctx})
	if err != nil || sr.Status == Failed {
		t.Errorf("sat: wall-clock budget: %v, %v; want a Timeout result", sr, err)
	}
	aopt := DefaultAppSAT()
	aopt.Timeout, aopt.Context = budget, ctx
	ar, err := AppSAT(hard.Locked, hard.KeyInputPos, oracle, aopt)
	if err != nil || ar.Status == Failed {
		t.Errorf("appsat: wall-clock budget: %v, %v; want a Timeout result", ar, err)
	}
	oh, err := SATAttackOneHot(hard.Locked, hard.KeyInputPos, HintsFromRIL(hard), oracle, SATOptions{Timeout: budget, Context: ctx})
	if err != nil || oh.SAT.Status == Failed {
		t.Errorf("onehot: wall-clock budget: %v, %v; want a Timeout result", oh, err)
	}
	if sr != nil && sr.Status == KeyFound || ar != nil && ar.Status == KeyFound || oh != nil && oh.SAT.Status == KeyFound {
		t.Logf("a 3x 8x8x8 attack finished within %v on this machine; its budget path went unexercised", budget)
	}
}

// TestBudgetEndsEasyDIPs runs SATAttack, AppSAT and Sensitize on
// Table V's point-function locks, whose DIPs are each too easy for the
// solver to poll its deadline during the search. Solve checks its
// deadline on entry, so a 200 ms budget must end each attack as
// Timeout within 300 ms. AppSAT runs with a negative error threshold,
// so no approximate key ends it, and only on SARLock: on SFLL-HD its
// random queries pin the exact key within two rounds, well inside the
// budget. Sensitize has no status; it counts as Timeout when it leaves
// a key bit unresolved, and its per-bit CEGAR budget is effectively
// unbounded, so only the deadline ends a bit's search.
func TestBudgetEndsEasyDIPs(t *testing.T) {
	orig, err := netlist.Random(netlist.RandomProfile{
		Name: "tbl5", Inputs: 14, Outputs: 6, Gates: 500, Locality: 0.6,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sfll, err := baselines.SFLLHD(orig, 12, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	sar, err := baselines.SARLock(orig, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	const budget, limit = 200 * time.Millisecond, 300 * time.Millisecond
	satAttack := func(l *baselines.Locked, o Oracle) (Status, error) {
		res, err := SATAttack(l.Netlist, l.KeyPos, o, SATOptions{Timeout: budget})
		if err != nil {
			return 0, err
		}
		return res.Status, nil
	}
	appSAT := func(l *baselines.Locked, o Oracle) (Status, error) {
		opt := DefaultAppSAT()
		opt.Timeout, opt.ErrorThreshold, opt.MaxRounds = budget, -1, 1<<20
		res, err := AppSAT(l.Netlist, l.KeyPos, o, opt)
		if err != nil {
			return 0, err
		}
		return res.Status, nil
	}
	sensitize := func(l *baselines.Locked, o Oracle) (Status, error) {
		res, err := Sensitize(l.Netlist, l.KeyPos, o, 1<<20, budget)
		if err != nil {
			return 0, err
		}
		if res.Unresolved > 0 {
			return Timeout, nil
		}
		return KeyFound, nil
	}
	cases := []struct {
		name string
		lock *baselines.Locked
		run  func(*baselines.Locked, Oracle) (Status, error)
	}{
		{"sat/sfll-hd", sfll, satAttack},
		{"sat/sarlock", sar, satAttack},
		{"appsat/sarlock", sar, appSAT},
		{"sensitize/sfll-hd", sfll, sensitize},
		{"sensitize/sarlock", sar, sensitize},
	}
	for _, c := range cases {
		start := time.Now()
		st, err := c.run(c.lock, oracleFor(t, c.lock.Netlist, c.lock.KeyPos, c.lock.Key))
		if took := time.Since(start); err != nil || st != Timeout || took > limit {
			t.Errorf("%s: %v, %v after %v; want Timeout within %v", c.name, st, err, took, limit)
		}
	}
}

// flipOracle answers with output 0 inverted, which no key of the XOR
// locks below reproduces.
type flipOracle struct{ Oracle }

func (o flipOracle) Query(in []bool) []bool {
	out := o.Oracle.Query(in)
	out[0] = !out[0]
	return out
}

// TestNoKeyFitsIsFailed attacks XOR locks through an oracle no key can
// match. Such an attack may still converge to a key class that agrees
// with the oracle on every DIP it found; otherwise a DIP constraint
// contradicts the miter, which must end the attack Failed with a done
// record, whichever key copy shows the contradiction. Resuming the
// journal without its done record re-solves into the same verdict with
// no oracle query; constraint replay of it reports ErrReplayDiverged,
// as for any journal that contradicts its circuit.
func TestNoKeyFitsIsFailed(t *testing.T) {
	failed := 0
	for seed := int64(1); seed <= 6; seed++ {
		orig := testutil.RandomCircuit(t, 10, 4, 60, seed)
		locked, keyPos, key := testutil.XORLock(t, orig, 8, seed)
		var buf bytes.Buffer
		res, err := SATAttack(locked, keyPos, flipOracle{oracleFor(t, locked, keyPos, key)},
			SATOptions{Timeout: time.Minute, Journal: NewJournal(&buf)})
		if err != nil || res.Status == Timeout {
			t.Errorf("seed %d: live attack: %v, %v; want a verdict", seed, res, err)
			continue
		}
		if res.Status != Failed {
			continue
		}
		failed++
		data, err := ReadJournal(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if data.Done == nil || data.Done.Status != Failed.String() || len(data.Records) != res.Iterations {
			t.Errorf("seed %d: journal holds %d records and done %+v; want %d records and a failed done record",
				seed, len(data.Records), data.Done, res.Iterations)
			continue
		}
		o := flipOracle{oracleFor(t, locked, keyPos, key)}
		for _, done := range []*JournalDone{data.Done, nil} {
			data.Done = done
			res, err = SATAttack(locked, keyPos, o, SATOptions{Timeout: time.Minute, Resume: data})
			if err != nil || res.Status != Failed || res.Replayed != len(data.Records) || o.Queries() != 0 {
				t.Errorf("seed %d: resume (done record %v): %v, %v, %d queries; want Failed from the journal alone",
					seed, done != nil, res, err, o.Queries())
			}
		}
		_, err = SATAttack(locked, keyPos, o, SATOptions{Timeout: time.Minute, Resume: data, Portfolio: 2})
		if !errors.Is(err, ErrReplayDiverged) {
			t.Errorf("seed %d: constraint replay: %v; want ErrReplayDiverged", seed, err)
		}
	}
	if failed == 0 {
		t.Error("no seed hit a contradiction")
	}
}

// TestInterruptedJournalResumes: a journaled attack cancelled mid-run
// keeps every DIP it paid for, writes no done record, and resumes to
// the uninterrupted key without re-querying a journaled DIP.
func TestInterruptedJournalResumes(t *testing.T) {
	fx := rilFixture(t, c432Profile(t), core.Size8x8, 432)
	full, _, total := attackWithJournal(t, fx, SATOptions{Timeout: 2 * time.Minute})
	const k = 5
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var journal bytes.Buffer
	o := &hookOracle{Oracle: fx.oracle(t), n: k, hook: cancel}
	_, err := SATAttack(fx.locked, fx.keyPos, o, SATOptions{Timeout: 2 * time.Minute, Context: ctx, Journal: NewJournal(&journal)})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("cancelled journaled attack: err = %v, want ErrInterrupted", err)
	}
	data, err := ReadJournal(&journal)
	if err != nil {
		t.Fatal(err)
	}
	if data.Done != nil || len(data.Records) != k {
		t.Fatalf("interrupted journal: %d records, done=%+v; want %d records and no done record", len(data.Records), data.Done, k)
	}
	o2 := fx.oracle(t)
	res, err := SATAttack(fx.locked, fx.keyPos, o2, SATOptions{Timeout: 2 * time.Minute, Resume: data})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != KeyFound || !bytesEqual(res.Key, full.Key) || res.Replayed != k {
		t.Errorf("resumed: %v key=%s replayed=%d; want key %s with %d replayed", res, bitString(res.Key), res.Replayed, bitString(full.Key), k)
	}
	if got := o2.Queries(); got != total-k {
		t.Errorf("resumed run made %d oracle queries, want %d (zero re-queries)", got, total-k)
	}
}

// TestInterruptedDuringReplay cancels a resumed attack while it is
// still re-executing its journal: the run reports ErrInterrupted — not
// ErrReplayDiverged, though it stopped short of the journal's end —
// and never queries the oracle.
func TestInterruptedDuringReplay(t *testing.T) {
	fx := rilFixture(t, c432Profile(t), core.Size8x8, 432)
	_, journal, _ := attackWithJournal(t, fx, SATOptions{Timeout: 2 * time.Minute})
	data, err := ReadJournal(bytes.NewReader(journal))
	if err != nil {
		t.Fatal(err)
	}
	data.Done = nil // every DIP record, as if killed before the done record
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	o := fx.oracle(t)
	_, err = SATAttack(fx.locked, fx.keyPos, o, SATOptions{
		Timeout: 2 * time.Minute, Context: ctx, Resume: data,
		Progress: func(p Progress) {
			if p.Iteration == 3 {
				cancel()
			}
		},
	})
	if !errors.Is(err, ErrInterrupted) || errors.Is(err, ErrReplayDiverged) {
		t.Errorf("cancelled replay: err = %v, want ErrInterrupted and not ErrReplayDiverged", err)
	}
	if o.Queries() != 0 {
		t.Errorf("cancelled replay queried the oracle %d times", o.Queries())
	}
}
