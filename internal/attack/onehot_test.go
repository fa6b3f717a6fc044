package attack

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/netlist"
)

func TestOneHotBreaksRoutingOnlyLock(t *testing.T) {
	// The one-layer re-encoding (paper §IV-B, following [11]) must
	// crack a routing-only (FullLock-style) network and map the
	// crossbar back to banyan switch settings.
	orig, err := netlist.Random(netlist.RandomProfile{
		Name: "rl", Inputs: 16, Outputs: 12, Gates: 300, Locality: 0.3,
	}, 51)
	if err != nil {
		t.Fatal(err)
	}
	l, net, err := baselines.RoutingLock(orig, 8, 52)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := l.Netlist.BindInputs(l.KeyPos, l.Key)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := NewSimOracle(bound)
	if err != nil {
		t.Fatal(err)
	}
	hints := []RoutingHint{HintFromRoutingNetwork(net.Width, net.InputNames, net.OutputNames, net.KeyPos)}
	res, err := SATAttackOneHot(l.Netlist, l.KeyPos, hints, oracle, SATOptions{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.SAT.Status != KeyFound {
		t.Fatalf("one-hot attack did not converge on a routing-only lock: %v", res.SAT)
	}
	if !res.Realizable {
		t.Fatal("recovered permutation not realizable on the banyan")
	}
	e, err := VerifyKey(l.Netlist, l.KeyPos, res.Key, oracle, 8, 53)
	if err != nil {
		t.Fatal(err)
	}
	if e != 0 {
		t.Errorf("mapped-back key error rate %v, want 0", e)
	}
}

// TestOneHotHintsFollowReplacedTaps builds the relaxed netlist for a
// lock in which later blocks replace gates that block 0 taps: the
// hints must name the output lines that now drive block 0.
func TestOneHotHintsFollowReplacedTaps(t *testing.T) {
	orig, err := netlist.Random(netlist.RandomProfile{
		Name: "t", Inputs: 16, Outputs: 16, Gates: 150, Locality: 0.7,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Lock(orig, core.Options{Blocks: 3, Size: core.Size8x8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	bound, err := res.ApplyKey(res.Key)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := NewSimOracle(bound)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SATAttackOneHot(res.Locked, res.KeyInputPos, HintsFromRIL(res), oracle,
		SATOptions{MaxIterations: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestOneHotStillHardOnRIL(t *testing.T) {
	// Against full RIL-Blocks the coupled LUT layer keeps the relaxed
	// instance hard (the paper's §III-A design argument).
	orig := smallCircuit(t, 300, 54)
	res, err := core.Lock(orig, core.Options{Blocks: 2, Size: core.Size8x8x8, Seed: 55})
	if err != nil {
		t.Fatal(err)
	}
	bound, err := res.ApplyKey(res.Key)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := NewSimOracle(bound)
	if err != nil {
		t.Fatal(err)
	}
	hints := HintsFromRIL(res)
	if len(hints) != 4 { // 2 blocks x (input + output banyan)
		t.Fatalf("expected 4 hints, got %d", len(hints))
	}
	ar, err := SATAttackOneHot(res.Locked, res.KeyInputPos, hints, oracle,
		SATOptions{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if ar.SAT.Status == KeyFound {
		if !ar.Realizable {
			t.Log("relaxed key found but not realizable — attack fails either way")
			return
		}
		e, err := VerifyKey(res.Locked, res.KeyInputPos, ar.Key, oracle, 8, 56)
		if err != nil {
			t.Fatal(err)
		}
		if e != 0 {
			t.Errorf("one-hot attack converged to a wrong key (err %v) — should be caught", e)
		}
		t.Skip("one-hot attack solved 2x 8x8x8 within 1s on this machine")
	}
}

func TestOneHotKeyEquivalenceOnSmallRIL(t *testing.T) {
	// On a small RIL instance the one-hot attack converges; the mapped
	// key must be functionally correct (even if bitwise different).
	orig := smallCircuit(t, 120, 57)
	res, err := core.Lock(orig, core.Options{Blocks: 1, Size: core.Size{K: 2, InputRouting: true, OutputRouting: true}, Seed: 58})
	if err != nil {
		t.Fatal(err)
	}
	bound, err := res.ApplyKey(res.Key)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := NewSimOracle(bound)
	if err != nil {
		t.Fatal(err)
	}
	ar, err := SATAttackOneHot(res.Locked, res.KeyInputPos, HintsFromRIL(res), oracle,
		SATOptions{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if ar.SAT.Status != KeyFound {
		t.Skipf("2x2x2 one-hot attack did not converge: %v", ar.SAT)
	}
	if !ar.Realizable {
		t.Skip("relaxed permutation not realizable (over-approximate key space)")
	}
	e, err := VerifyKey(res.Locked, res.KeyInputPos, ar.Key, oracle, 8, 59)
	if err != nil {
		t.Fatal(err)
	}
	if e != 0 {
		t.Errorf("mapped key error rate %v, want 0", e)
	}
}

func TestRoutingLockBaseline(t *testing.T) {
	orig := smallCircuit(t, 200, 60)
	l, net, err := baselines.RoutingLock(orig, 8, 61)
	if err != nil {
		t.Fatal(err)
	}
	if net.Width != 8 || len(net.InputNames) != 8 || len(net.OutputNames) != 8 {
		t.Fatalf("network geometry %+v", net)
	}
	if l.KeyBits() != core.BanyanSwitchCount(8) {
		t.Errorf("key bits %d, want %d", l.KeyBits(), core.BanyanSwitchCount(8))
	}
	// Wrong keys must corrupt (routing obfuscation has real output
	// corruption, unlike point functions).
	wrong := append([]bool(nil), l.Key...)
	wrong[0] = !wrong[0]
	wb, err := l.Netlist.BindInputs(l.KeyPos, wrong)
	if err != nil {
		t.Fatal(err)
	}
	boundOK, err := l.Netlist.BindInputs(l.KeyPos, l.Key)
	if err != nil {
		t.Fatal(err)
	}
	eq, _, err := EquivalentSAT(boundOK, wb, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Log("flipping one switch produced an equivalent routing (possible for symmetric positions)")
	}
}

// TestOneHotHonoursSATOptions: the one-hot attack runs on the shared
// DIP loop, so Trace, Progress, Journal/Resume and Portfolio apply to
// it exactly as to SATAttack.
func TestOneHotHonoursSATOptions(t *testing.T) {
	fx, hints := routingOnlyFixture(t)
	var trace, journal bytes.Buffer
	lastIter := 0
	oracle := fx.oracle(t)
	full, err := SATAttackOneHot(fx.locked, fx.keyPos, hints, oracle, SATOptions{
		Timeout: time.Minute, Trace: &trace, Journal: NewJournal(&journal),
		Progress: func(p Progress) { lastIter = p.Iteration },
	})
	if err != nil {
		t.Fatal(err)
	}
	n := full.SAT.Iterations
	if full.SAT.Status != KeyFound || !full.Realizable || n < 2 {
		t.Fatalf("one-hot attack: %v realizable=%v", full.SAT, full.Realizable)
	}
	if lines := strings.Count(trace.String(), "\n"); lines != n {
		t.Errorf("trace has %d lines for %d DIPs", lines, n)
	}
	if lastIter != n {
		t.Errorf("progress saw %d iterations, result says %d", lastIter, n)
	}
	data, err := ReadJournal(&journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Records) != n || data.Done == nil {
		t.Fatalf("journal: %d records, done=%v; want %d records and a done record", len(data.Records), data.Done, n)
	}

	// Resume from the first half of the journal: zero re-queries.
	k := n / 2
	data.Records, data.Done = data.Records[:k], nil
	o2 := fx.oracle(t)
	res, err := SATAttackOneHot(fx.locked, fx.keyPos, hints, o2, SATOptions{Timeout: time.Minute, Resume: data})
	if err != nil {
		t.Fatal(err)
	}
	if res.SAT.Replayed != k || o2.Queries() != n-k || !bytesEqual(res.Key, full.Key) {
		t.Errorf("resumed: replayed %d, %d queries, key %s; want %d, %d, %s",
			res.SAT.Replayed, o2.Queries(), BitString(res.Key), k, n-k, BitString(full.Key))
	}

	// A 2-worker portfolio still recovers an exact relaxed key. Which
	// of the functionally equivalent permutations it lands on depends
	// on the race, and the banyan cannot route every one of them, so
	// the mapped-back key is checked whenever it is realizable.
	pf, err := SATAttackOneHot(fx.locked, fx.keyPos, hints, fx.oracle(t), SATOptions{Timeout: time.Minute, Portfolio: 2})
	if err != nil {
		t.Fatal(err)
	}
	if pf.SAT.Status != KeyFound {
		t.Fatalf("portfolio one-hot attack: %v", pf.SAT)
	}
	relaxed, relaxedKeyPos, _, err := buildRelaxed(fx.locked, fx.keyPos, hints)
	if err != nil {
		t.Fatal(err)
	}
	if e, err := VerifyKey(relaxed, relaxedKeyPos, pf.SAT.Key, oracle, 8, 53); err != nil || e != 0 {
		t.Errorf("portfolio relaxed key error rate %v (%v), want 0", e, err)
	}
	if !pf.Realizable {
		t.Log("portfolio run landed on a permutation the banyan cannot route")
	} else if e, err := VerifyKey(fx.locked, fx.keyPos, pf.Key, oracle, 8, 53); err != nil || e != 0 {
		t.Errorf("portfolio key error rate %v (%v), want 0", e, err)
	}
}
