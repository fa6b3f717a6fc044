package sat

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/cnf"
)

func lit(f *cnf.Formula, v int, neg bool) cnf.Lit {
	for f.NumVars <= v {
		f.NewVar()
	}
	return cnf.MkLit(cnf.Var(v), neg)
}

func TestTrivialSat(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(cnf.MkLit(a, false))
	if st := s.Solve(); st != Sat {
		t.Fatalf("status %v", st)
	}
	if !s.Model()[a] {
		t.Error("unit clause not honored")
	}
}

func TestTrivialUnsat(t *testing.T) {
	s := New()
	a := s.NewVar()
	if !s.AddClause(cnf.MkLit(a, false)) {
		t.Fatal("first unit rejected")
	}
	if s.AddClause(cnf.MkLit(a, true)) {
		if st := s.Solve(); st != Unsat {
			t.Fatalf("status %v, want UNSAT", st)
		}
	}
	if s.Okay() {
		t.Error("solver should be permanently inconsistent")
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := New()
	if s.AddClause() {
		t.Error("empty clause must report conflict")
	}
	if st := s.Solve(); st != Unsat {
		t.Error("solver with empty clause must be UNSAT")
	}
}

func TestPigeonhole(t *testing.T) {
	// PHP(n+1, n): n+1 pigeons in n holes — classic UNSAT family that
	// requires real search (resolution lower bounds are exponential).
	for _, n := range []int{3, 4, 5} {
		s := New()
		s.AddFormula(pigeonhole(n))
		if st := s.Solve(); st != Unsat {
			t.Errorf("PHP(%d,%d) = %v, want UNSAT", n+1, n, st)
		}
	}
}

func TestGraphColoringSat(t *testing.T) {
	// 3-color a cycle of length 6 (2-colorable, so certainly 3-colorable).
	const n, k = 6, 3
	f := cnf.NewFormula()
	v := func(node, color int) cnf.Lit { return lit(f, node*k+color, false) }
	for node := 0; node < n; node++ {
		f.AddClause(v(node, 0), v(node, 1), v(node, 2))
		for c1 := 0; c1 < k; c1++ {
			for c2 := c1 + 1; c2 < k; c2++ {
				f.AddClause(v(node, c1).Not(), v(node, c2).Not())
			}
		}
	}
	for node := 0; node < n; node++ {
		next := (node + 1) % n
		for c := 0; c < k; c++ {
			f.AddClause(v(node, c).Not(), v(next, c).Not())
		}
	}
	s := New()
	s.AddFormula(f)
	if st := s.Solve(); st != Sat {
		t.Fatalf("cycle coloring = %v, want SAT", st)
	}
	model := s.Model()
	// Verify the model is a proper coloring.
	color := make([]int, n)
	for node := 0; node < n; node++ {
		color[node] = -1
		for c := 0; c < k; c++ {
			if model[node*k+c] {
				color[node] = c
			}
		}
		if color[node] < 0 {
			t.Fatalf("node %d uncolored", node)
		}
	}
	for node := 0; node < n; node++ {
		if color[node] == color[(node+1)%n] {
			t.Errorf("edge %d-%d monochromatic", node, (node+1)%n)
		}
	}
}

// bruteForce reports satisfiability by enumeration (vars <= 20).
func bruteForce(f *cnf.Formula) bool {
	n := f.NumVars
	assign := make([]bool, n)
	for m := 0; m < 1<<n; m++ {
		for i := 0; i < n; i++ {
			assign[i] = m&(1<<i) != 0
		}
		if f.Eval(assign) {
			return true
		}
	}
	return false
}

func TestRandom3SATAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		nv := 4 + rng.Intn(9) // 4..12 vars
		nc := int(float64(nv) * (2.0 + rng.Float64()*3.0))
		f := cnf.NewFormula()
		for i := 0; i < nv; i++ {
			f.NewVar()
		}
		for c := 0; c < nc; c++ {
			var cl []cnf.Lit
			for k := 0; k < 3; k++ {
				cl = append(cl, cnf.MkLit(cnf.Var(rng.Intn(nv)), rng.Intn(2) == 0))
			}
			f.AddClause(cl...)
		}
		want := bruteForce(f)
		s := New()
		s.AddFormula(f)
		st := s.Solve()
		if want && st != Sat {
			t.Fatalf("trial %d: solver says %v, brute force says SAT", trial, st)
		}
		if !want && st != Unsat {
			t.Fatalf("trial %d: solver says %v, brute force says UNSAT", trial, st)
		}
		if st == Sat && !f.Eval(s.Model()[:f.NumVars]) {
			t.Fatalf("trial %d: returned model does not satisfy formula", trial)
		}
	}
}

func TestIncrementalSolving(t *testing.T) {
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(cnf.MkLit(a, false), cnf.MkLit(b, false))
	if st := s.Solve(); st != Sat {
		t.Fatal("phase 1 should be SAT")
	}
	s.AddClause(cnf.MkLit(a, true))
	s.AddClause(cnf.MkLit(c, false))
	if st := s.Solve(); st != Sat {
		t.Fatal("phase 2 should be SAT")
	}
	m := s.Model()
	if m[a] || !m[b] || !m[c] {
		t.Errorf("model %v violates added units", m[:3])
	}
	s.AddClause(cnf.MkLit(b, true))
	if st := s.Solve(); st != Unsat {
		t.Fatal("phase 3 should be UNSAT")
	}
}

func TestAssumptions(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(cnf.MkLit(a, false), cnf.MkLit(b, false)) // a ∨ b
	if st := s.Solve(cnf.MkLit(a, true)); st != Sat {
		t.Fatal("assuming ¬a should still be SAT via b")
	}
	if !s.Model()[b] {
		t.Error("model must set b under assumption ¬a")
	}
	if st := s.Solve(cnf.MkLit(a, true), cnf.MkLit(b, true)); st != Unsat {
		t.Fatal("assuming ¬a ∧ ¬b should be UNSAT")
	}
	// Solver must remain usable: no permanent damage from assumptions.
	if st := s.Solve(); st != Sat {
		t.Fatal("solver unusable after assumption UNSAT")
	}
	if st := s.Solve(cnf.MkLit(a, false)); st != Sat {
		t.Fatal("assuming a should be SAT")
	}
	if !s.Model()[a] {
		t.Error("assumption not reflected in model")
	}
}

func TestConflictingAssumptions(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(cnf.MkLit(a, false), cnf.MkLit(a, false))
	if st := s.Solve(cnf.MkLit(a, false), cnf.MkLit(a, true)); st != Unsat {
		t.Error("directly contradictory assumptions should be UNSAT")
	}
	if st := s.Solve(); st != Sat {
		t.Error("solver unusable afterwards")
	}
}

func TestConflictBudget(t *testing.T) {
	// A hard pigeonhole instance with a tiny conflict budget must
	// return Unknown rather than running to completion.
	s := New()
	s.AddFormula(pigeonhole(8))
	s.SetConflictBudget(50)
	if st := s.Solve(); st != Unknown {
		t.Errorf("budgeted solve = %v, want UNKNOWN", st)
	}
	if s.Stats().Conflicts < 50 {
		t.Errorf("conflicts = %d, want >= 50", s.Stats().Conflicts)
	}
}

func TestDeadline(t *testing.T) {
	s := New()
	s.AddFormula(pigeonhole(10)) // PHP(11,10) is far beyond a 20ms budget
	s.SetDeadline(time.Now().Add(20 * time.Millisecond))
	start := time.Now()
	st := s.Solve()
	elapsed := time.Since(start)
	if st != Unknown {
		t.Skipf("instance solved within deadline (%v) — acceptable on fast machines", st)
	}
	if elapsed > 3*time.Second {
		t.Errorf("deadline ignored: ran %v", elapsed)
	}
}

// TestBudgetSpentOnEntry: a Solve whose deadline, conflict budget or
// context has already passed returns Unknown before searching, on an
// instance far too easy to reach the search's periodic budget poll,
// and leaves the counters untouched.
func TestBudgetSpentOnEntry(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name  string
		spend func(*Solver)
	}{
		{"deadline", func(s *Solver) { s.SetDeadline(time.Now().Add(-time.Second)) }},
		{"context", func(s *Solver) { s.SetContext(ctx) }},
		{"conflict-budget", func(s *Solver) { s.SetConflictBudget(0) }},
	}
	for _, c := range cases {
		s := New()
		s.AddFormula(random3SAT(20, 3, 1))
		if st := s.Solve(); st == Unknown {
			t.Fatalf("%s: unbudgeted solve = %v", c.name, st)
		}
		c.spend(s)
		before := s.Stats()
		if st := s.Solve(); st != Unknown {
			t.Errorf("%s: solve with a spent budget = %v, want UNKNOWN", c.name, st)
		}
		if after := s.Stats(); after != before {
			t.Errorf("%s: stats moved from %+v to %+v", c.name, before, after)
		}
	}
}

// TestRandomDecisionWithoutVariables: a random decision on a solver
// with no variables has none to draw and must fall through to the
// (empty) heap instead of panicking.
func TestRandomDecisionWithoutVariables(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RandomFreq = 0.99
	if st := NewWithConfig(cfg).Solve(); st != Sat {
		t.Errorf("empty formula = %v, want SAT", st)
	}
}

func TestModelValue(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(cnf.MkLit(a, true)) // force ¬a
	if st := s.Solve(); st != Sat {
		t.Fatal("should be SAT")
	}
	if s.ModelValue(cnf.MkLit(a, false)) {
		t.Error("a should be false")
	}
	if !s.ModelValue(cnf.MkLit(a, true)) {
		t.Error("¬a should be true")
	}
}

func TestDuplicateAndTautologicalClauses(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(cnf.MkLit(a, false), cnf.MkLit(a, false), cnf.MkLit(b, false))
	s.AddClause(cnf.MkLit(a, false), cnf.MkLit(a, true)) // tautology
	if st := s.Solve(); st != Sat {
		t.Fatal("should be SAT")
	}
}

// TestAddClauseNormalisation covers AddClause's normalisation table in
// DIMACS literals over variables 1–4 plus variable 5, fixed true at
// level 0 (5 is a true literal, -5 a false one). Every path must leave
// the per-variable mark scratch clean.
func TestAddClauseNormalisation(t *testing.T) {
	cases := []struct {
		name   string
		lits   []int
		ok     bool
		clause []int // attached clause, nil if none
		unit   int   // literal fixed at level 0 by the clause, 0 if none
	}{
		{"plain", []int{1, -2, 3}, true, []int{1, -2, 3}, 0},
		{"duplicates keep first order", []int{2, 1, 2, -3, 1}, true, []int{2, 1, -3}, 0},
		{"tautology", []int{1, 2, -1}, true, nil, 0},
		{"tautology after duplicate", []int{1, 1, 2, -2}, true, nil, 0},
		{"true literal first", []int{5, 1, 2}, true, nil, 0},
		{"true literal after others", []int{1, 2, 3, 5}, true, nil, 0},
		{"false literal dropped", []int{1, -5, 2}, true, []int{1, 2}, 0},
		{"false and duplicate leave a unit", []int{-4, -5, -4}, true, nil, -4},
		{"all false", []int{-5, -5}, false, nil, 0},
		{"empty", nil, false, nil, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New()
			for i := 0; i < 5; i++ {
				s.NewVar()
			}
			s.AddClause(cnf.FromDimacs(5))
			lits := make([]cnf.Lit, len(tc.lits))
			for i, d := range tc.lits {
				lits[i] = cnf.FromDimacs(d)
			}
			before := s.NumClauses()
			if got := s.AddClause(lits...); got != tc.ok {
				t.Fatalf("AddClause = %v, want %v", got, tc.ok)
			}
			var attached []int
			if s.NumClauses() > before {
				for _, l := range s.clauseLits(int32(before)) {
					attached = append(attached, l.Dimacs())
				}
			}
			if !reflect.DeepEqual(attached, tc.clause) {
				t.Errorf("attached clause %v, want %v", attached, tc.clause)
			}
			if tc.unit != 0 {
				if l := cnf.FromDimacs(tc.unit); s.litValue(l) != lTrue || s.level[l.Var()] != 0 {
					t.Errorf("literal %d not fixed at level 0", tc.unit)
				}
			}
			for v, m := range s.mark {
				if m != 0 {
					t.Errorf("mark scratch left %d on variable %d", m, v+1)
				}
			}
		})
	}
}

func TestAddClauseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	// Normalisation reuses a scratch buffer and the literals are copied
	// into the clause arena, so the only allocations are the arena's,
	// the header list's and the watch lists' growth, which amortise to
	// zero. 16 literals is the width of a sensitization blocking clause.
	for _, width := range []int{3, 16} {
		s := New()
		lits := make([]cnf.Lit, width)
		for i := range lits {
			lits[i] = cnf.MkLit(s.NewVar(), i%2 == 1)
		}
		if allocs := testing.AllocsPerRun(1000, func() { s.AddClause(lits...) }); allocs > 0 {
			t.Errorf("%d-literal AddClause costs %v allocations, want 0", width, allocs)
		}
	}
}

// TestSolveAllocs keeps conflict analysis, LBD counting and reduceDB
// free of per-call maps and slices: a warm solver, its buffers grown
// by an earlier Solve, resumes PHP(8,7) for thousands of conflicts
// and thousands of deletions with only amortised growth allocating.
func TestSolveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	s := New()
	s.AddFormula(pigeonhole(7))
	s.SetConflictBudget(1000)
	if st := s.Solve(); st != Unknown {
		t.Fatalf("warm-up solve = %v, want UNKNOWN", st)
	}
	before := s.Stats()
	s.SetConflictBudget(4500)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	st := s.Solve()
	runtime.ReadMemStats(&m1)
	if st != Unknown {
		t.Fatalf("budgeted solve = %v, want UNKNOWN", st)
	}
	conflicts := s.Stats().Conflicts - before.Conflicts
	allocs := int64(m1.Mallocs - m0.Mallocs)
	t.Logf("%d allocations over %d conflicts and %d deletions", allocs, conflicts, s.Stats().Removed-before.Removed)
	if allocs*10 > conflicts {
		t.Errorf("%d allocations over %d conflicts, want at most one per 10 conflicts", allocs, conflicts)
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i)); got != w {
			t.Errorf("luby(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestStatsProgress(t *testing.T) {
	f := cnf.NewFormula()
	rng := rand.New(rand.NewSource(3))
	const nv = 40
	for i := 0; i < nv; i++ {
		f.NewVar()
	}
	for c := 0; c < 170; c++ {
		var cl []cnf.Lit
		for k := 0; k < 3; k++ {
			cl = append(cl, cnf.MkLit(cnf.Var(rng.Intn(nv)), rng.Intn(2) == 0))
		}
		f.AddClause(cl...)
	}
	s := New()
	s.AddFormula(f)
	s.Solve()
	st := s.Stats()
	if st.Decisions == 0 || st.Propagations == 0 {
		t.Errorf("no work recorded: %+v", st)
	}
}

func TestXorChainScaling(t *testing.T) {
	// x1 ⊕ x2 ⊕ ... ⊕ xn = 1 with all xi forced 0 except none: SAT with
	// odd parity; verify the solver handles long implication chains.
	const n = 200
	f := cnf.NewFormula()
	prev := f.NewVar()
	for i := 1; i < n; i++ {
		x := f.NewVar()
		out := f.NewVar()
		a, b, o := cnf.MkLit(prev, false), cnf.MkLit(x, false), cnf.MkLit(out, false)
		f.AddClause(o.Not(), a, b)
		f.AddClause(o.Not(), a.Not(), b.Not())
		f.AddClause(o, a.Not(), b)
		f.AddClause(o, a, b.Not())
		prev = out
	}
	f.AddClause(cnf.MkLit(prev, false)) // final parity must be 1
	s := New()
	s.AddFormula(f)
	if st := s.Solve(); st != Sat {
		t.Fatalf("xor chain = %v, want SAT", st)
	}
	if !f.Eval(s.Model()[:f.NumVars]) {
		t.Fatal("model does not satisfy xor chain")
	}
}

// BenchmarkSolver_Pigeonhole7 refutes PHP(8,7), eight pigeons in seven
// holes: the solver alone, with thousands of learnt-clause deletions.
func BenchmarkSolver_Pigeonhole7(b *testing.B) {
	const n = 7
	for i := 0; i < b.N; i++ {
		f := cnf.NewFormula()
		for p := 0; p <= n; p++ {
			var c []cnf.Lit
			for h := 0; h < n; h++ {
				c = append(c, lit(f, p*n+h, false))
			}
			f.AddClause(c...)
		}
		for h := 0; h < n; h++ {
			for p1 := 0; p1 <= n; p1++ {
				for p2 := p1 + 1; p2 <= n; p2++ {
					f.AddClause(lit(f, p1*n+h, true), lit(f, p2*n+h, true))
				}
			}
		}
		s := New()
		s.AddFormula(f)
		if s.Solve() != Unsat {
			b.Fatal("PHP(8,7) must be UNSAT")
		}
	}
}
