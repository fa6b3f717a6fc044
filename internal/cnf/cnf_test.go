package cnf

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/netlist"
)

func TestLitEncoding(t *testing.T) {
	v := Var(5)
	p := MkLit(v, false)
	n := MkLit(v, true)
	if p.Var() != v || n.Var() != v {
		t.Error("Var() wrong")
	}
	if p.Neg() || !n.Neg() {
		t.Error("Neg() wrong")
	}
	if p.Not() != n || n.Not() != p {
		t.Error("Not() wrong")
	}
	if p.Dimacs() != 6 || n.Dimacs() != -6 {
		t.Errorf("Dimacs = %d/%d, want 6/-6", p.Dimacs(), n.Dimacs())
	}
	if FromDimacs(6) != p || FromDimacs(-6) != n {
		t.Error("FromDimacs wrong")
	}
}

func TestQuickDimacsRoundTrip(t *testing.T) {
	f := func(raw int16, neg bool) bool {
		v := Var(int32(raw&0x7FFF) % 1000)
		l := MkLit(v, neg)
		return FromDimacs(l.Dimacs()) == l
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFormulaEval(t *testing.T) {
	f := NewFormula()
	a, b := f.NewVar(), f.NewVar()
	f.AddClause(MkLit(a, false), MkLit(b, false)) // a ∨ b
	f.AddClause(MkLit(a, true), MkLit(b, true))   // ¬a ∨ ¬b
	if !f.Eval([]bool{true, false}) || !f.Eval([]bool{false, true}) {
		t.Error("XOR-ish formula should accept (1,0) and (0,1)")
	}
	if f.Eval([]bool{true, true}) || f.Eval([]bool{false, false}) {
		t.Error("XOR-ish formula should reject (1,1) and (0,0)")
	}
}

func TestDimacsIO(t *testing.T) {
	f := NewFormula()
	a, b, c := f.NewVar(), f.NewVar(), f.NewVar()
	f.AddClause(MkLit(a, false), MkLit(b, true))
	f.AddClause(MkLit(c, false))
	var buf bytes.Buffer
	if err := f.WriteDimacs(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ParseDimacs(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumVars != 3 || len(back.Clauses) != 2 {
		t.Fatalf("round trip geometry %d vars %d clauses", back.NumVars, len(back.Clauses))
	}
	if back.Clauses[0][0] != MkLit(a, false) || back.Clauses[0][1] != MkLit(b, true) {
		t.Error("clause literals changed in round trip")
	}
}

func TestParseDimacsErrors(t *testing.T) {
	bad := []string{
		"p cnf x 2\n1 0\n2 0\n",
		"p cnf 2 5\n1 0\n", // wrong clause count
		"p dnf 2 1\n1 0\n",
		"1 z 0\n",
	}
	for _, src := range bad {
		if _, err := ParseDimacs(strings.NewReader(src)); err == nil {
			t.Errorf("ParseDimacs accepted %q", src)
		}
	}
}

// enumerate counts satisfying assignments of f over all NumVars vars.
func enumerate(f *Formula) int {
	n := f.NumVars
	count := 0
	assign := make([]bool, n)
	for m := 0; m < 1<<n; m++ {
		for i := 0; i < n; i++ {
			assign[i] = m&(1<<i) != 0
		}
		if f.Eval(assign) {
			count++
		}
	}
	return count
}

// TestTseitinModelCount verifies the defining property of the Tseitin
// transform: the encoded formula has exactly one satisfying assignment
// per primary-input assignment (all internal variables are functionally
// determined).
func TestTseitinModelCount(t *testing.T) {
	builds := map[string]func() *netlist.Netlist{
		"and3": func() *netlist.Netlist {
			n := netlist.New("and3")
			a, b, c := n.AddInput("a"), n.AddInput("b"), n.AddInput("c")
			g := n.AddGate("g", netlist.And, a, b, c)
			n.MarkOutput(g)
			return n
		},
		"xor-nor": func() *netlist.Netlist {
			n := netlist.New("xn")
			a, b := n.AddInput("a"), n.AddInput("b")
			x := n.AddGate("x", netlist.Xor, a, b)
			y := n.AddGate("y", netlist.Nor, x, a)
			n.MarkOutput(y)
			return n
		},
		"mux": func() *netlist.Netlist {
			n := netlist.New("m")
			s, a, b := n.AddInput("s"), n.AddInput("a"), n.AddInput("b")
			m := n.AddGate("m", netlist.Mux, s, a, b)
			n.MarkOutput(m)
			return n
		},
		"notbuf": func() *netlist.Netlist {
			n := netlist.New("nb")
			a := n.AddInput("a")
			x := n.AddGate("x", netlist.Not, a)
			y := n.AddGate("y", netlist.Buf, x)
			n.MarkOutput(y)
			return n
		},
		"xnor3": func() *netlist.Netlist {
			n := netlist.New("x3")
			a, b, c := n.AddInput("a"), n.AddInput("b"), n.AddInput("c")
			g := n.AddGate("g", netlist.Xnor, a, b, c)
			n.MarkOutput(g)
			return n
		},
	}
	for name, build := range builds {
		nl := build()
		e := NewEncoder()
		gv, err := e.Encode(nl, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if e.F.NumVars > 16 {
			t.Fatalf("%s: too many vars (%d) for exhaustive check", name, e.F.NumVars)
		}
		want := 1 << len(nl.Inputs)
		if got := enumerate(e.F); got != want {
			t.Errorf("%s: %d models, want %d", name, got, want)
		}
		_ = gv
	}
}

// TestTseitinFunctional checks that forcing inputs and the expected
// output leaves the formula satisfiable, and forcing the wrong output
// makes it unsatisfiable — for every input pattern of a two-gate
// circuit.
func TestTseitinFunctional(t *testing.T) {
	nl := netlist.New("f")
	a, b := nl.AddInput("a"), nl.AddInput("b")
	x := nl.AddGate("x", netlist.Nand, a, b)
	y := nl.AddGate("y", netlist.Xor, x, a)
	nl.MarkOutput(y)
	sim, err := netlist.NewSimulator(nl)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 4; p++ {
		av, bv := p&1 != 0, p&2 != 0
		want := sim.Eval([]bool{av, bv})[0]
		for _, claim := range []bool{false, true} {
			e := NewEncoder()
			gv, err := e.Encode(nl, nil)
			if err != nil {
				t.Fatal(err)
			}
			e.AssertLit(MkLit(gv.Inputs[0], !av))
			e.AssertLit(MkLit(gv.Inputs[1], !bv))
			e.AssertLit(MkLit(gv.Outputs[0], !claim))
			satisfiable := enumerate(e.F) > 0
			if claim == want && !satisfiable {
				t.Errorf("pattern %d: correct output %v unsatisfiable", p, claim)
			}
			if claim != want && satisfiable {
				t.Errorf("pattern %d: wrong output %v satisfiable", p, claim)
			}
		}
	}
	_ = x
}

func TestSharedInputEncoding(t *testing.T) {
	nl := netlist.New("s")
	a := nl.AddInput("a")
	g := nl.AddGate("g", netlist.Not, a)
	nl.MarkOutput(g)

	e := NewEncoder()
	gv1, err := e.Encode(nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	gv2, err := e.Encode(nl, map[int]Var{0: gv1.Inputs[0]})
	if err != nil {
		t.Fatal(err)
	}
	if gv1.Inputs[0] != gv2.Inputs[0] {
		t.Fatal("shared input not shared")
	}
	// Outputs of the two copies must be equal in every model: assert
	// they differ and expect UNSAT.
	e.F.AddClause(MkLit(gv1.Outputs[0], false), MkLit(gv2.Outputs[0], false))
	e.F.AddClause(MkLit(gv1.Outputs[0], true), MkLit(gv2.Outputs[0], true))
	if enumerate(e.F) != 0 {
		t.Error("two copies sharing inputs produced different outputs")
	}
}

func TestExactlyOne(t *testing.T) {
	e := NewEncoder()
	var lits []Lit
	for i := 0; i < 4; i++ {
		lits = append(lits, MkLit(e.F.NewVar(), false))
	}
	e.ExactlyOne(lits)
	if got := enumerate(e.F); got != 4 {
		t.Errorf("ExactlyOne over 4 vars has %d models, want 4", got)
	}
}

func TestBVAReducesAndPreservesModels(t *testing.T) {
	// Build a formula with obvious BVA structure:
	// (a ∨ R_i) ∧ (b ∨ R_i) for 4 distinct rests R_i plus noise.
	f := NewFormula()
	a, b := f.NewVar(), f.NewVar()
	var rests []Lit
	for i := 0; i < 4; i++ {
		rests = append(rests, MkLit(f.NewVar(), false))
	}
	for _, r := range rests {
		f.AddClause(MkLit(a, false), r)
		f.AddClause(MkLit(b, false), r)
	}
	f.AddClause(MkLit(a, false), MkLit(b, false)) // noise

	before := enumerate(f)
	nvBefore := f.NumVars
	clausesBefore := len(f.Clauses)

	stats := BVA(f, 3, 10)
	if stats.VarsAdded == 0 {
		t.Fatal("BVA found no opportunity in a textbook instance")
	}
	if len(f.Clauses) >= clausesBefore {
		t.Errorf("BVA did not shrink: %d -> %d", clausesBefore, len(f.Clauses))
	}

	// Model count over the ORIGINAL variables must be preserved:
	// project models of the new formula onto the first nvBefore vars.
	proj := map[int]bool{}
	n := f.NumVars
	assign := make([]bool, n)
	for m := 0; m < 1<<n; m++ {
		for i := 0; i < n; i++ {
			assign[i] = m&(1<<i) != 0
		}
		if f.Eval(assign) {
			key := m & (1<<nvBefore - 1)
			proj[key] = true
		}
	}
	if len(proj) != before {
		t.Errorf("BVA changed solution set: %d original models, %d projected", before, len(proj))
	}
}

func TestBVANoOpportunity(t *testing.T) {
	f := NewFormula()
	a, b := f.NewVar(), f.NewVar()
	f.AddClause(MkLit(a, false), MkLit(b, false))
	stats := BVA(f, 3, 10)
	if stats.VarsAdded != 0 || len(f.Clauses) != 1 {
		t.Errorf("BVA altered a formula with no structure: %+v", stats)
	}
}
