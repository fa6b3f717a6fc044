package sat

import (
	"math/rand"
	"testing"

	"repro/internal/cnf"
)

// diffBruteForce reports whether any total assignment satisfies f under
// the given assumptions (nil = none). Only sound for small var counts.
func diffBruteForce(f *cnf.Formula, nVars int, assumptions []cnf.Lit) bool {
	assign := make([]bool, nVars)
	for mask := 0; mask < 1<<uint(nVars); mask++ {
		for v := 0; v < nVars; v++ {
			assign[v] = mask&(1<<uint(v)) != 0
		}
		ok := true
		for _, a := range assumptions {
			if assign[a.Var()] == a.Neg() {
				ok = false
				break
			}
		}
		if ok && f.Eval(assign) {
			return true
		}
	}
	return false
}

// diffRandClause draws a clause of 1..3 distinct literals over nVars vars.
func diffRandClause(rng *rand.Rand, nVars int) []cnf.Lit {
	n := 1 + rng.Intn(3)
	seen := make(map[cnf.Var]bool, n)
	var lits []cnf.Lit
	for len(lits) < n {
		v := cnf.Var(rng.Intn(nVars))
		if seen[v] {
			continue
		}
		seen[v] = true
		lits = append(lits, cnf.MkLit(v, rng.Intn(2) == 0))
	}
	return lits
}

// TestDifferentialVsBruteForce cross-checks the CDCL solver against
// exhaustive enumeration on ~1000 random small instances, exercising
// the incremental interface: each instance is solved, re-solved under
// random assumptions, extended with an extra clause, and solved again
// on the same solver object. Every SAT answer is model-checked.
func TestDifferentialVsBruteForce(t *testing.T) {
	const instances = 1000
	rng := rand.New(rand.NewSource(20250806))
	for i := 0; i < instances; i++ {
		nVars := 3 + rng.Intn(10) // 3..12
		nClauses := 1 + rng.Intn(4*nVars)

		f := cnf.NewFormula()
		s := New()
		for v := 0; v < nVars; v++ {
			f.NewVar()
			s.NewVar()
		}
		for c := 0; c < nClauses; c++ {
			lits := diffRandClause(rng, nVars)
			f.AddClause(lits...)
			s.AddClause(lits...)
		}

		want := diffBruteForce(f, nVars, nil)
		got := s.Solve()
		if (got == Sat) != want || got == Unknown {
			t.Fatalf("instance %d: solver says %v, brute force says sat=%v", i, got, want)
		}
		if got == Sat && !f.Eval(s.Model()[:nVars]) {
			t.Fatalf("instance %d: model does not satisfy formula", i)
		}

		// Incremental solve under random assumptions.
		nAssume := 1 + rng.Intn(3)
		seen := make(map[cnf.Var]bool, nAssume)
		var assumptions []cnf.Lit
		for len(assumptions) < nAssume {
			v := cnf.Var(rng.Intn(nVars))
			if seen[v] {
				continue
			}
			seen[v] = true
			assumptions = append(assumptions, cnf.MkLit(v, rng.Intn(2) == 0))
		}
		want = diffBruteForce(f, nVars, assumptions)
		got = s.Solve(assumptions...)
		if (got == Sat) != want || got == Unknown {
			t.Fatalf("instance %d: under assumptions %v solver says %v, brute force says sat=%v",
				i, assumptions, got, want)
		}
		if got == Sat {
			m := s.Model()
			if !f.Eval(m[:nVars]) {
				t.Fatalf("instance %d: assumption model does not satisfy formula", i)
			}
			for _, a := range assumptions {
				if m[a.Var()] == a.Neg() {
					t.Fatalf("instance %d: model violates assumption %v", i, a)
				}
			}
		}

		// Incremental clause addition on the same solver.
		extra := diffRandClause(rng, nVars)
		f.AddClause(extra...)
		s.AddClause(extra...)
		want = diffBruteForce(f, nVars, nil)
		got = s.Solve()
		if (got == Sat) != want || got == Unknown {
			t.Fatalf("instance %d: after extra clause solver says %v, brute force says sat=%v", i, got, want)
		}
		if got == Sat && !f.Eval(s.Model()[:nVars]) {
			t.Fatalf("instance %d: post-extension model does not satisfy formula", i)
		}
	}
}

// TestStatsMonotoneAndResetSafe pins the Stats contract the sweep
// harness relies on: counters only grow across incremental Solve
// calls.
func TestStatsMonotoneAndResetSafe(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := New()
	const nVars = 12
	for v := 0; v < nVars; v++ {
		s.NewVar()
	}
	monotone := func(prev, cur Stats) bool {
		return cur.Decisions >= prev.Decisions &&
			cur.Propagations >= prev.Propagations &&
			cur.Conflicts >= prev.Conflicts &&
			cur.Restarts >= prev.Restarts &&
			cur.Learnt >= prev.Learnt &&
			cur.Removed >= prev.Removed &&
			cur.MaxDepth >= prev.MaxDepth
	}
	prev := s.Stats()
	for round := 0; round < 20 && s.Okay(); round++ {
		for c := 0; c < 4; c++ {
			s.AddClause(diffRandClause(rng, nVars)...)
		}
		s.Solve()
		cur := s.Stats()
		if !monotone(prev, cur) {
			t.Fatalf("round %d: stats went backwards: %+v -> %+v", round, prev, cur)
		}
		prev = cur
	}
	if prev.Propagations == 0 && prev.Decisions == 0 {
		t.Fatal("stats never advanced; instance too trivial for the regression")
	}
}
