package sat

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cnf"
)

// Golden pins of the solver's search trajectory, recorded before the
// clause arena and literal-indexed assignments replaced per-clause
// slices. Every decision, propagation, learnt clause and deletion shows
// in the counters, so matching Stats (and the model, when SAT) proves
// the storage layout did not change the search. Unlike the attack-level
// pins, these runs reach reduceDB thousands of times: they pin its
// locked-clause test, its deletion order, and arena compaction.

// pigeonhole returns PHP(n+1, n): n+1 pigeons in n holes, UNSAT.
func pigeonhole(n int) *cnf.Formula {
	f := cnf.NewFormula()
	v := func(p, h int) cnf.Lit { return lit(f, p*n+h, false) }
	for p := 0; p <= n; p++ {
		var c []cnf.Lit
		for h := 0; h < n; h++ {
			c = append(c, v(p, h))
		}
		f.AddClause(c...)
	}
	for h := 0; h < n; h++ {
		for p1 := 0; p1 <= n; p1++ {
			for p2 := p1 + 1; p2 <= n; p2++ {
				f.AddClause(v(p1, h).Not(), v(p2, h).Not())
			}
		}
	}
	return f
}

// random3SAT draws round(ratio*n) clauses of three distinct variables
// over n variables.
func random3SAT(n int, ratio float64, seed int64) *cnf.Formula {
	rng := rand.New(rand.NewSource(seed))
	f := cnf.NewFormula()
	for i := 0; i < n; i++ {
		f.NewVar()
	}
	for c := 0; c < int(ratio*float64(n)+0.5); c++ {
		var cl []cnf.Lit
		for len(cl) < 3 {
			v := cnf.Var(rng.Intn(n))
			dup := false
			for _, l := range cl {
				dup = dup || l.Var() == v
			}
			if !dup {
				cl = append(cl, cnf.MkLit(v, rng.Intn(2) == 0))
			}
		}
		f.AddClause(cl...)
	}
	return f
}

// pin renders a solve outcome: status, full Stats and, when SAT, a
// short hash of the model.
func pin(s *Solver, st Status) string {
	out := fmt.Sprintf("%v %+v", st, s.Stats())
	if st == Sat {
		m := make([]byte, len(s.Model()))
		for i, b := range s.Model() {
			if b {
				m[i] = 1
			}
		}
		h := sha256.Sum256(m)
		out += fmt.Sprintf(" model=%x", h[:8])
	}
	return out
}

func TestGoldenSolver(t *testing.T) {
	cases := []struct {
		name string
		f    *cnf.Formula
		want string
	}{
		{"php8x7", pigeonhole(7),
			"UNSAT decisions=5946 propagations=67776 conflicts=4983 restarts=20 learnt=4982 removed=4053 maxdepth=31"},
		{"3sat150@4.26/150", random3SAT(150, 4.26, 150),
			"SAT decisions=3157 propagations=82566 conflicts=2587 restarts=13 learnt=2587 removed=1224 maxdepth=24 model=179726d2513be581"},
	}
	for _, tc := range cases {
		s := New()
		s.AddFormula(tc.f)
		if got := pin(s, s.Solve()); got != tc.want {
			t.Errorf("%s:\n got  %s\n want %s", tc.name, got, tc.want)
		}
	}
}

// TestGoldenIncremental pins an assumptions-then-extra-clause sequence
// on one solver, the DIP loop's shape: solve under assumptions and block
// each model found with an extra clause until the assumptions are
// refuted, then solve once without them. Learnt clauses, deletions and
// the clause count carry over between the calls.
func TestGoldenIncremental(t *testing.T) {
	s := New()
	s.AddFormula(random3SAT(150, 4.0, 42))
	var assumps []cnf.Lit
	for v := 0; v < 4; v++ {
		assumps = append(assumps, cnf.MkLit(cnf.Var(v), v%3 == 0))
	}
	want := []string{
		"SAT decisions=87 propagations=1766 conflicts=54 restarts=0 learnt=54 removed=0 maxdepth=24 model=b4bf1de9972b8485",
		"SAT decisions=106 propagations=1916 conflicts=54 restarts=0 learnt=54 removed=0 maxdepth=24 model=37d04eb555f5a8da",
		"SAT decisions=154 propagations=2766 conflicts=79 restarts=0 learnt=79 removed=0 maxdepth=24 model=9a7a45a17fbcd0d8",
		"UNSAT decisions=3009 propagations=77716 conflicts=2403 restarts=12 learnt=2403 removed=1253 maxdepth=24",
		"SAT decisions=3268 propagations=84275 conflicts=2600 restarts=13 learnt=2600 removed=1253 maxdepth=24 model=a1ddff4d2069c32e",
	}
	var got []string
	for st := s.Solve(assumps...); ; st = s.Solve(assumps...) {
		got = append(got, pin(s, st))
		if st != Sat {
			break
		}
		block := make([]cnf.Lit, 0, 40)
		for v := cnf.Var(4); v < 44; v++ {
			block = append(block, cnf.MkLit(v, s.Model()[v]))
		}
		s.AddClause(block...)
	}
	got = append(got, pin(s, s.Solve()))
	if len(got) != len(want) {
		t.Fatalf("%d solves, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("solve %d:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}
