package netlist

import (
	"bytes"
	"strings"
	"testing"
)

// buildFullAdder returns a 1-bit full adder: sum = a^b^cin, cout = maj.
func buildFullAdder(t *testing.T) *Netlist {
	t.Helper()
	n := New("fulladder")
	a := n.AddInput("a")
	b := n.AddInput("b")
	cin := n.AddInput("cin")
	axb := n.AddGate("axb", Xor, a, b)
	sum := n.AddGate("sum", Xor, axb, cin)
	ab := n.AddGate("ab", And, a, b)
	cx := n.AddGate("cx", And, axb, cin)
	cout := n.AddGate("cout", Or, ab, cx)
	n.MarkOutput(sum)
	n.MarkOutput(cout)
	if err := n.Validate(); err != nil {
		t.Fatalf("full adder invalid: %v", err)
	}
	return n
}

func TestFullAdderSim(t *testing.T) {
	n := buildFullAdder(t)
	sim, err := NewSimulator(n)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 8; p++ {
		a, b, c := p&1 != 0, p&2 != 0, p&4 != 0
		out := sim.Eval([]bool{a, b, c})
		ones := 0
		for _, v := range []bool{a, b, c} {
			if v {
				ones++
			}
		}
		wantSum := ones%2 == 1
		wantCout := ones >= 2
		if out[0] != wantSum || out[1] != wantCout {
			t.Errorf("adder(%v,%v,%v) = %v, want sum=%v cout=%v", a, b, c, out, wantSum, wantCout)
		}
	}
}

func TestBitParallelMatchesScalar(t *testing.T) {
	n := buildFullAdder(t)
	sim, _ := NewSimulator(n)
	// All 8 patterns in one word.
	in := make([]uint64, 3)
	for p := 0; p < 8; p++ {
		for i := 0; i < 3; i++ {
			if p&(1<<i) != 0 {
				in[i] |= 1 << p
			}
		}
	}
	out := sim.Run(in)
	for p := 0; p < 8; p++ {
		a, b, c := p&1 != 0, p&2 != 0, p&4 != 0
		ones := 0
		for _, v := range []bool{a, b, c} {
			if v {
				ones++
			}
		}
		if got := out[0]&(1<<p) != 0; got != (ones%2 == 1) {
			t.Errorf("pattern %d sum mismatch", p)
		}
		if got := out[1]&(1<<p) != 0; got != (ones >= 2) {
			t.Errorf("pattern %d cout mismatch", p)
		}
	}
}

func TestMuxSemantics(t *testing.T) {
	n := New("mux")
	s := n.AddInput("s")
	a := n.AddInput("a")
	b := n.AddInput("b")
	m := n.AddGate("m", Mux, s, a, b)
	n.MarkOutput(m)
	sim, _ := NewSimulator(n)
	cases := []struct {
		s, a, b, want bool
	}{
		{false, true, false, true}, // s=0 selects a
		{false, false, true, false},
		{true, true, false, false}, // s=1 selects b
		{true, false, true, true},
	}
	for _, c := range cases {
		if got := sim.Eval([]bool{c.s, c.a, c.b})[0]; got != c.want {
			t.Errorf("mux(s=%v,a=%v,b=%v) = %v, want %v", c.s, c.a, c.b, got, c.want)
		}
	}
}

func TestConstGates(t *testing.T) {
	n := New("consts")
	n.AddInput("x")
	c0 := n.AddGate("c0", Const0)
	c1 := n.AddGate("c1", Const1)
	n.MarkOutput(c0)
	n.MarkOutput(c1)
	sim, _ := NewSimulator(n)
	out := sim.Eval([]bool{true})
	if out[0] || !out[1] {
		t.Errorf("const outputs = %v, want [false true]", out)
	}
}

func TestValidateRejectsCycle(t *testing.T) {
	n := New("cyclic")
	a := n.AddInput("a")
	g1 := n.AddGate("g1", And, a, a)
	_ = g1
	// Manually create a cycle g2 -> g3 -> g2.
	n.Gates = append(n.Gates, Gate{Name: "g2", Type: And, Fanin: []int{a, 3}})
	n.byName["g2"] = 2
	n.Gates = append(n.Gates, Gate{Name: "g3", Type: Not, Fanin: []int{2}})
	n.byName["g3"] = 3
	n.MarkOutput(3)
	if err := n.Validate(); err == nil {
		t.Error("Validate accepted a cyclic netlist")
	}
}

// TestFaninOwnership: AddGate keeps a copy of the caller's fanin, each
// gate's Fanin has no spare capacity, so appending to one never writes
// into the next gate's, and Clone shares no fanin storage.
func TestFaninOwnership(t *testing.T) {
	n := New("own")
	a, b, c := n.AddInput("a"), n.AddInput("b"), n.AddInput("c")
	fanin := []int{a, b}
	g1 := n.AddGate("g1", And, fanin...)
	g2 := n.AddGate("g2", Or, b, c)
	fanin[0] = c
	if got := n.Gates[g1].Fanin; got[0] != a {
		t.Errorf("g1 fanin %v follows the caller's slice, want [%d %d]", got, a, b)
	}
	for _, id := range []int{g1, g2} {
		if fin := n.Gates[id].Fanin; cap(fin) != len(fin) {
			t.Errorf("%s: Fanin cap %d, len %d", n.Gates[id].Name, cap(fin), len(fin))
		}
	}
	_ = append(n.Gates[g1].Fanin, c)
	if got := n.Gates[g2].Fanin; got[0] != b || got[1] != c {
		t.Errorf("appending to g1's fanin changed g2's to %v", got)
	}
	cl := n.Clone()
	cl.Gates[g2].Fanin[0] = a
	if n.Gates[g2].Fanin[0] != b {
		t.Error("Clone shares fanin storage with the original")
	}
	if fin := cl.Gates[g1].Fanin; cap(fin) != len(fin) {
		t.Errorf("clone's g1 Fanin cap %d, len %d", cap(fin), len(fin))
	}
}

// TestDuplicateNames: AddGate panics on a name already taken and keeps
// the index pointing at the first gate; Validate rejects two gates of
// one name appended to Gates directly.
func TestDuplicateNames(t *testing.T) {
	n := New("dup")
	a := n.AddInput("a")
	g := n.AddGate("g", Not, a)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AddGate accepted a duplicate name")
			}
		}()
		n.AddGate("g", Buf, a)
	}()
	if id, ok := n.GateID("g"); !ok || id != g || n.NumGates() != 2 {
		t.Errorf("after the duplicate: g -> %d (%v), %d gates; want %d and 2 gates", id, ok, n.NumGates(), g)
	}
	n.Gates = append(n.Gates, Gate{Name: "g", Type: Buf, Fanin: []int{a}})
	if err := n.Validate(); err == nil || !strings.Contains(err.Error(), `share name "g"`) {
		t.Errorf("Validate with a directly appended duplicate: %v", err)
	}
}

func TestValidateRejectsBadArity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AddGate should panic on bad arity")
		}
	}()
	n := New("arity")
	a := n.AddInput("a")
	n.AddGate("bad", Mux, a, a) // MUX needs 3
}

func TestRedirectFanoutAndPrune(t *testing.T) {
	n := buildFullAdder(t)
	// Replace the "ab" AND gate by a NAND+NOT pair.
	ab := n.MustGateID("ab")
	a := n.MustGateID("a")
	b := n.MustGateID("b")
	nand := n.AddGate("ab_nand", Nand, a, b)
	inv := n.AddGate("ab_inv", Not, nand)
	n.RedirectFanout(ab, inv)
	removed := n.Prune()
	if removed != 1 {
		t.Errorf("Prune removed %d gates, want 1 (the dead AND)", removed)
	}
	if _, ok := n.GateID("ab"); ok {
		t.Error("dead gate survived pruning")
	}
	ref := buildFullAdder(t)
	eq, cex, err := Equivalent(n, ref, 10, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Errorf("rewritten adder inequivalent, cex=%v", cex)
	}
}

func TestLevelsAndCones(t *testing.T) {
	n := buildFullAdder(t)
	lv, depth, err := n.Levels()
	if err != nil {
		t.Fatal(err)
	}
	if depth != 3 { // cout = OR(AND, AND(XOR,cin)) is three levels deep
		t.Errorf("full adder depth = %d, want 3", depth)
	}
	if lv[n.MustGateID("a")] != 0 || lv[n.MustGateID("sum")] != 2 {
		t.Error("level assignment wrong")
	}
	cone := n.TransitiveFanin(n.MustGateID("sum"))
	if !cone[n.MustGateID("a")] || !cone[n.MustGateID("cin")] {
		t.Error("sum cone should contain all inputs")
	}
	if cone[n.MustGateID("cout")] {
		t.Error("sum cone should not contain cout")
	}
	fo := FanoutCone(n.FanoutLists(), n.MustGateID("axb"))
	if !fo[n.MustGateID("sum")] || !fo[n.MustGateID("cout")] {
		t.Error("axb fans out to both outputs")
	}
}

func TestBenchRoundTrip(t *testing.T) {
	n := buildFullAdder(t)
	var buf bytes.Buffer
	if err := n.WriteBench(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ParseBench("fulladder", &buf)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	eq, cex, err := Equivalent(n, back, 10, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Errorf("bench round trip changed function, cex=%v", cex)
	}
}

func TestParseBenchForwardRefs(t *testing.T) {
	src := `
# forward reference: y uses g before g is defined
INPUT(a)
INPUT(b)
OUTPUT(y)
y = NOT(g)
g = AND(a, b)
`
	n, err := ParseBench("fwd", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	sim, _ := NewSimulator(n)
	if got := sim.Eval([]bool{true, true})[0]; got {
		t.Error("NOT(AND(1,1)) should be 0")
	}
	if got := sim.Eval([]bool{true, false})[0]; !got {
		t.Error("NOT(AND(1,0)) should be 1")
	}
}

func TestParseBenchDFFScanConversion(t *testing.T) {
	src := `
INPUT(x)
OUTPUT(y)
q = DFF(d)
d = XOR(x, q)
y = AND(x, q)
`
	n, err := ParseBench("seq", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	// q becomes a pseudo input; d becomes a pseudo output.
	if len(n.Inputs) != 2 {
		t.Errorf("scan conversion produced %d inputs, want 2", len(n.Inputs))
	}
	if len(n.Outputs) != 2 {
		t.Errorf("scan conversion produced %d outputs, want 2 (y + d)", len(n.Outputs))
	}
	sim, _ := NewSimulator(n)
	out := sim.Eval([]bool{true, true}) // x=1, q=1
	if out[0] != true {                 // y = AND(1,1)
		t.Error("y wrong after scan conversion")
	}
	if out[1] != false { // d = XOR(1,1)
		t.Error("d wrong after scan conversion")
	}
}

func TestParseBenchErrors(t *testing.T) {
	bad := []string{
		"INPUT()",
		"y = AND(a, b)", // a, b never declared
		"INPUT(a)\nOUTPUT(y)\n",
		"INPUT(a)\nnot an assignment",
		"INPUT(a)\nOUTPUT(y)\ny = FROB(a)",
	}
	for _, src := range bad {
		if _, err := ParseBench("bad", strings.NewReader(src)); err == nil {
			t.Errorf("ParseBench accepted %q", src)
		}
	}
}

func TestRandomGeneration(t *testing.T) {
	p := RandomProfile{Name: "rnd", Inputs: 16, Outputs: 8, Gates: 300, Locality: 0.8}
	n, err := Random(p, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Validate(); err != nil {
		t.Fatalf("random netlist invalid: %v", err)
	}
	if len(n.Inputs) != 16 || len(n.Outputs) != 8 {
		t.Errorf("random netlist IO %d/%d, want 16/8", len(n.Inputs), len(n.Outputs))
	}
	// Determinism: same seed, same circuit.
	n2, _ := Random(p, 42)
	eq, _, err := Equivalent(n, n2, 0, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("random generation is not deterministic")
	}
	// Different seed should (overwhelmingly) differ.
	n3, _ := Random(p, 43)
	eq, _, _ = Equivalent(n, n3, 0, 8, 7)
	if eq {
		t.Error("different seeds produced identical circuits (suspicious)")
	}
}

func TestRandomEveryInputUsed(t *testing.T) {
	n, err := Random(RandomProfile{Name: "r", Inputs: 40, Outputs: 5, Gates: 120, Locality: 0.9}, 3)
	if err != nil {
		t.Fatal(err)
	}
	used := make([]bool, len(n.Gates))
	for i := range n.Gates {
		for _, f := range n.Gates[i].Fanin {
			used[f] = true
		}
	}
	for _, id := range n.Inputs {
		if !used[id] {
			t.Errorf("input %s unused", n.Gates[id].Name)
		}
	}
}

func TestOutputCorruptibility(t *testing.T) {
	a := buildFullAdder(t)
	b := buildFullAdder(t)
	c, err := OutputCorruptibility(a, b, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c != 0 {
		t.Errorf("identical circuits corruptibility = %v, want 0", c)
	}
	// Invert one output of b.
	sum := b.MustGateID("sum")
	inv := b.AddGate("sum_inv", Not, sum)
	b.RedirectFanout(sum, inv)
	c, err = OutputCorruptibility(a, b, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c < 0.4 || c > 0.6 {
		t.Errorf("one-of-two outputs inverted: corruptibility = %v, want ~0.5", c)
	}
}

func TestStats(t *testing.T) {
	n := buildFullAdder(t)
	s, err := n.ComputeStats()
	if err != nil {
		t.Fatal(err)
	}
	if s.Gates != 5 || s.Inputs != 3 || s.Outputs != 2 || s.Depth != 3 {
		t.Errorf("stats = %+v", s)
	}
	if !strings.Contains(s.String(), "XOR=2") {
		t.Errorf("stats string %q missing XOR count", s.String())
	}
}

func TestFreshName(t *testing.T) {
	n := New("fresh")
	n.AddInput("k_0")
	name := n.FreshName("k")
	if name == "k_0" {
		t.Error("FreshName returned colliding name")
	}
	n.AddInput(name) // must not panic
}

func TestGateIDsByPrefix(t *testing.T) {
	n := New("pfx")
	n.AddInput("a")
	n.AddInput("keyinput0")
	n.AddInput("b")
	n.AddInput("keyinput1")
	got := n.GateIDsByPrefix("keyinput")
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("GateIDsByPrefix = %v, want [1 3]", got)
	}
}
