package attack

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/testutil"
)

// assertKeyFlipZero verifies a recovered key against the canonical one
// with the oracle-side ground truth: flipping exactly the bits where
// the two keys differ must produce zero output error, i.e. the
// recovered key is functionally identical even when it is not
// bit-identical (RIL selector groups admit multiple encodings of the
// same routing).
func assertKeyFlipZero(t *testing.T, locked *netlist.Netlist, keyPos []int, canonical, recovered []bool) {
	t.Helper()
	if len(canonical) != len(recovered) {
		t.Fatalf("key length mismatch: canonical %d, recovered %d", len(canonical), len(recovered))
	}
	var diff []int
	for i := range canonical {
		if canonical[i] != recovered[i] {
			diff = append(diff, i)
		}
	}
	e, err := KeyFlipError(locked, keyPos, canonical, diff, 16, 1)
	if err != nil {
		t.Fatalf("KeyFlipError: %v", err)
	}
	if e != 0 {
		t.Errorf("recovered key differs functionally from canonical: flip error %.6f on bits %v", e, diff)
	}
}

// runPortfolioAttack locks orig with one RIL block under a fixed seed
// and attacks it with an n-worker portfolio, asserting convergence and
// key correctness. It returns the result and the oracle query count.
func runPortfolioAttack(t *testing.T, orig *netlist.Netlist, size core.Size, seed int64, workers int) (*SATResult, int) {
	t.Helper()
	res, err := core.Lock(orig, core.Options{Blocks: 1, Size: size, Seed: seed})
	if err != nil {
		t.Fatalf("lock: %v", err)
	}
	bound, err := res.ApplyKey(res.Key)
	if err != nil {
		t.Fatalf("apply key: %v", err)
	}
	oracle, err := NewSimOracle(bound)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	ar, err := SATAttack(res.Locked, res.KeyInputPos, oracle, SATOptions{
		Timeout:   2 * time.Minute,
		Portfolio: workers,
	})
	if err != nil {
		t.Fatalf("portfolio(%d) attack: %v", workers, err)
	}
	if ar.Status != KeyFound {
		t.Fatalf("portfolio(%d) attack did not converge: %v", workers, ar)
	}
	assertKeyFlipZero(t, res.Locked, res.KeyInputPos, res.Key, ar.Key)
	return ar, oracle.Queries()
}

// TestPortfolioAttackC17Envelope runs the c17/2x2/seed-17 regression
// lock under an 8-worker portfolio. The DIP sequence is
// trace-nondeterministic, but the iteration and query counts must stay
// inside the same envelope the sequential attack is pinned to — the
// portfolio races heuristics, it does not change what a DIP is worth.
func TestPortfolioAttackC17Envelope(t *testing.T) {
	f, err := os.Open("../../testdata/c17.bench")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	orig, err := netlist.ParseBench("c17", f)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		ar, queries := runPortfolioAttack(t, orig, core.Size2x2, 17, workers)
		t.Logf("c17/2x2 seed 17 portfolio(%d): %d iterations, %d queries", workers, ar.Iterations, queries)
		queryBound{minIters: 3, maxIters: 14, minQueries: 3, maxQueries: 14}.check(t, "c17 portfolio", ar.Iterations, queries)
		if ar.Solver.Decisions == 0 && ar.Solver.Propagations == 0 {
			t.Error("aggregated portfolio stats recorded no solver work")
		}
	}
}

// TestPortfolioAttackC432Envelope does the same on the synthesized
// c432 profile with one 8x8 routing block and a 2-worker portfolio.
func TestPortfolioAttackC432Envelope(t *testing.T) {
	orig := c432Profile(t)
	ar, queries := runPortfolioAttack(t, orig, core.Size8x8, 432, 2)
	t.Logf("c432/8x8 seed 432 portfolio(2): %d iterations, %d queries", ar.Iterations, queries)
	queryBound{minIters: 12, maxIters: 48, minQueries: 12, maxQueries: 48}.check(t, "c432 portfolio", ar.Iterations, queries)
}

// TestPortfolioJournalReplayEveryTruncation journals a portfolio
// attack to completion, then resumes from every truncation point of
// the record stream. Constraint replay must consume all surviving
// records without a single oracle re-query — new queries come only
// from live iterations past the truncation — and converge to a
// functionally correct key each time.
func TestPortfolioJournalReplayEveryTruncation(t *testing.T) {
	fx := xorFixture(t, 70, 8, 330)
	full, journal, totalQueries := attackWithJournal(t, fx, SATOptions{Timeout: time.Minute, Portfolio: 4})
	if full.Status != KeyFound {
		t.Fatalf("journaled portfolio attack did not converge: %v", full)
	}
	if full.Iterations < 3 {
		t.Fatalf("fixture too easy (%d DIPs) to exercise truncation", full.Iterations)
	}
	if totalQueries != full.Iterations {
		t.Fatalf("journaled run made %d queries over %d iterations", totalQueries, full.Iterations)
	}
	fullData, err := ReadJournal(bytes.NewReader(journal))
	if err != nil {
		t.Fatal(err)
	}
	if !fullData.Header.Portfolio {
		t.Fatal("portfolio journal header does not record portfolio mode")
	}

	lines := strings.SplitAfter(string(journal), "\n")
	for k := 0; k <= full.Iterations; k++ {
		data, err := ReadJournal(strings.NewReader(strings.Join(lines[:1+k], "")))
		if err != nil {
			t.Fatalf("k=%d: reading truncated journal: %v", k, err)
		}
		oracle := fx.oracle(t)
		res, err := SATAttack(fx.locked, fx.keyPos, oracle, SATOptions{
			Timeout: time.Minute, Portfolio: 4, Resume: data,
		})
		if err != nil {
			t.Fatalf("k=%d: resumed portfolio attack: %v", k, err)
		}
		if res.Status != KeyFound {
			t.Fatalf("k=%d: resumed attack did not converge: %v", k, res)
		}
		if res.Replayed != k {
			t.Errorf("k=%d: replayed %d records, want %d", k, res.Replayed, k)
		}
		if got, want := oracle.Queries(), res.Iterations-k; got != want {
			t.Errorf("k=%d: %d oracle queries for %d live iterations — journaled records were re-queried",
				k, got, want)
		}
		// The continuation may walk a different DIP path (constraint
		// replay does not restore learnt clauses), but the key must be
		// functionally right and never cost more fresh queries than the
		// uninterrupted run's total.
		if eq := bytesEqual(res.Key, full.Key); !eq {
			ok, _, err := netlist.Equivalent(fx.bound, mustBind(t, fx, res.Key), 12, 2000, 330)
			if err != nil {
				t.Fatalf("k=%d: equivalence: %v", k, err)
			}
			if !ok {
				t.Errorf("k=%d: resumed key %s is functionally wrong", k, BitString(res.Key))
			}
		}
	}
}

// mustBind activates a fixture's locked circuit with a key.
func mustBind(t *testing.T, fx *fixture, key []bool) *netlist.Netlist {
	t.Helper()
	b, err := fx.locked.BindInputs(fx.keyPos, key)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestPortfolioJournalCrashInjection reuses the FaultyWriter crash
// harness on a portfolio attack: for a spread of byte budgets the
// journal write dies mid-attack; resuming from whatever survived must
// serve every durable record without re-querying the oracle for it.
func TestPortfolioJournalCrashInjection(t *testing.T) {
	fx := xorFixture(t, 70, 8, 331)
	full, journal, _ := attackWithJournal(t, fx, SATOptions{Timeout: time.Minute, Portfolio: 4})
	if full.Status != KeyFound {
		t.Fatalf("uninterrupted portfolio attack did not converge: %v", full)
	}
	step := len(journal)/9 + 1
	for budget := 1; budget < len(journal); budget += step {
		var disk bytes.Buffer
		fw := testutil.NewFaultyWriter(&disk, budget)
		oracle := fx.oracle(t)
		_, err := SATAttack(fx.locked, fx.keyPos, oracle, SATOptions{
			Timeout: time.Minute, Portfolio: 4, Journal: NewJournal(fw),
		})
		if err == nil {
			continue // budget outlived this (nondeterministic) attack
		}
		if !errors.Is(err, testutil.ErrInjected) {
			t.Fatalf("budget=%d: attack failed with %v, want injected fault", budget, err)
		}
		data, rerr := ReadJournal(bytes.NewReader(disk.Bytes()))
		var resume *JournalData
		if rerr == nil {
			resume = data
		} else if !errors.Is(rerr, ErrJournalCorrupt) {
			t.Fatalf("budget=%d: reading crashed journal: %v", budget, rerr)
		}
		durable := 0
		if resume != nil {
			durable = len(resume.Records)
		}
		o2 := fx.oracle(t)
		res, err := SATAttack(fx.locked, fx.keyPos, o2, SATOptions{
			Timeout: time.Minute, Portfolio: 4, Resume: resume,
		})
		if err != nil {
			t.Fatalf("budget=%d: resume after crash: %v", budget, err)
		}
		if res.Status != KeyFound {
			t.Fatalf("budget=%d: resumed attack did not converge: %v", budget, res)
		}
		if res.Replayed != durable {
			t.Errorf("budget=%d: replayed %d records, %d were durable", budget, res.Replayed, durable)
		}
		if got, want := o2.Queries(), res.Iterations-durable; got != want {
			t.Errorf("budget=%d: %d oracle queries for %d live iterations — durable records were re-queried",
				budget, got, want)
		}
	}
}

// TestJournalCrossModeResume pins the mode-independence of journals:
// a sequential journal resumes under a portfolio (constraint replay, a
// portfolio cannot reproduce the sequential trace) and a portfolio
// journal resumes under the sequential solver (constraint replay, the
// header demands it). Both directions: zero re-queries for journaled
// records.
func TestJournalCrossModeResume(t *testing.T) {
	fx := xorFixture(t, 60, 6, 340)

	seq, seqJournal, _ := attackWithJournal(t, fx, SATOptions{Timeout: time.Minute})
	if seq.Status != KeyFound {
		t.Fatalf("sequential attack did not converge: %v", seq)
	}
	pf, pfJournal, _ := attackWithJournal(t, fx, SATOptions{Timeout: time.Minute, Portfolio: 2})
	if pf.Status != KeyFound {
		t.Fatalf("portfolio attack did not converge: %v", pf)
	}

	cases := []struct {
		name      string
		journal   []byte
		records   int
		portfolio int
	}{
		{"sequential journal, portfolio resume", seqJournal, seq.Iterations, 2},
		{"portfolio journal, sequential resume", pfJournal, pf.Iterations, 0},
	}
	for _, tc := range cases {
		data, err := ReadJournal(bytes.NewReader(tc.journal))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		// Drop the done record so the resume actually re-enters the DIP
		// loop instead of reconstructing the finished result.
		data.Done = nil
		oracle := fx.oracle(t)
		res, err := SATAttack(fx.locked, fx.keyPos, oracle, SATOptions{
			Timeout: time.Minute, Portfolio: tc.portfolio, Resume: data,
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Status != KeyFound {
			t.Fatalf("%s: resumed attack did not converge: %v", tc.name, res)
		}
		if res.Replayed != tc.records {
			t.Errorf("%s: replayed %d records, want %d", tc.name, res.Replayed, tc.records)
		}
		if got, want := oracle.Queries(), res.Iterations-tc.records; got != want {
			t.Errorf("%s: %d oracle queries for %d live iterations", tc.name, got, want)
		}
		assertKeyFlipZero(t, fx.locked, fx.keyPos, seq.Key, res.Key)
	}
}
