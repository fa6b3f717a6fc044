package cnf

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/netlist"
)

// allTypesNetlist builds a random netlist over every gate type. The
// first gates take each type in turn (n-ary gates with three fanins,
// so XOR and XNOR chain), the rest draw types at random; fanins are
// drawn from all earlier gates, repeats allowed. netlist.Random never
// emits MUX or constants.
func allTypesNetlist(rng *rand.Rand, inputs, gates int) *netlist.Netlist {
	types := []netlist.GateType{
		netlist.And, netlist.Nand, netlist.Or, netlist.Nor, netlist.Xor, netlist.Xnor,
		netlist.Not, netlist.Buf, netlist.Mux, netlist.Const0, netlist.Const1,
	}
	n := netlist.New("alltypes")
	for i := 0; i < inputs; i++ {
		n.AddInput(fmt.Sprintf("in%d", i))
	}
	for g := 0; g < gates; g++ {
		typ, arity := types[rng.Intn(len(types))], 2+rng.Intn(3)
		if g < len(types) {
			typ, arity = types[g], 3
		}
		switch typ {
		case netlist.Const0, netlist.Const1:
			arity = 0
		case netlist.Not, netlist.Buf:
			arity = 1
		case netlist.Mux:
			arity = 3
		}
		fanin := make([]int, arity)
		for i := range fanin {
			fanin[i] = rng.Intn(len(n.Gates))
		}
		n.AddGate(fmt.Sprintf("g%d", g), typ, fanin...)
	}
	n.MarkOutput(len(n.Gates) - 1)
	for i := 0; i < 3 && gates > 1; i++ {
		n.MarkOutput(inputs + rng.Intn(gates-1))
	}
	return n
}

// NumVars returns the number of template slots (fresh variables one
// unshared stamp allocates).
func (t *Template) NumVars() int { return t.f.NumVars }

// NumClauses returns the clause count of one stamped copy.
func (t *Template) NumClauses() int { return t.f.NumClauses() }

// TestStampMatchesEncoder pins that a Stamp with nothing fixed is the
// encoder's stream: a second copy stamped after a first encoded one,
// sharing some inputs as the miter's key copies do, gets the variable
// numbering, clause stream and gate/input/output variables that a
// second Encoder.Encode would. Each template must also keep the
// clause-grouping rule.
func TestStampMatchesEncoder(t *testing.T) {
	prof, _ := circuit.ProfileByName("c7552")
	orig, err := prof.Synthesize(0.1)
	if err != nil {
		t.Fatal(err)
	}
	locked, err := core.Lock(orig, core.Options{Blocks: 5, Size: core.Size2x2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	type tc struct {
		nl     *netlist.Netlist
		shared []int
	}
	cases := []tc{{locked.Locked, locked.KeyInputPos}}
	for seed := int64(1); seed <= 5; seed++ {
		nl, err := netlist.Random(netlist.RandomProfile{
			Name: fmt.Sprintf("r%d", seed), Inputs: 12, Outputs: 5, Gates: 150, MaxFanin: 4, Locality: 0.4,
		}, seed)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tc{nl, []int{0, 3, 7}})
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3; i++ {
		cases = append(cases, tc{allTypesNetlist(rng, 6, 40), []int{1, 2}})
	}
	for _, c := range cases {
		want := NewEncoder()
		first, err := want.Encode(c.nl, nil)
		if err != nil {
			t.Fatal(err)
		}
		shared := make(map[int]Var)
		for _, p := range c.shared {
			shared[p] = first.Inputs[p]
		}
		wantGV, err := want.Encode(c.nl, shared)
		if err != nil {
			t.Fatal(err)
		}

		got := NewEncoder()
		if _, err := got.Encode(c.nl, nil); err != nil {
			t.Fatal(err)
		}
		tmpl, err := CompileTemplate(c.nl)
		if err != nil {
			t.Fatal(err)
		}
		checkClauseGroups(t, c.nl.Name, tmpl)
		gotGV, ok := tmpl.Stamp(got.F, shared)
		if !ok {
			t.Fatalf("%s: stamp reported a contradiction", c.nl.Name)
		}
		if got.F.NumVars != want.F.NumVars || !reflect.DeepEqual(got.F.Clauses, want.F.Clauses) {
			t.Errorf("%s: stamp gave %d vars, %d clauses; encoder %d vars, %d clauses (or the streams differ)",
				c.nl.Name, got.F.NumVars, len(got.F.Clauses), want.F.NumVars, len(want.F.Clauses))
		}
		if !reflect.DeepEqual(gotGV, wantGV) {
			t.Errorf("%s: stamped gate variables differ from the encoder's", c.nl.Name)
		}
	}
}

// checkClauseGroups checks the grouping rule the substitution pass
// relies on: every compiled clause defines its largest slot, and each
// slot's clauses are one contiguous run, in slot order.
func checkClauseGroups(t *testing.T, name string, tmpl *Template) {
	t.Helper()
	if tmpl.first[0] != 0 || tmpl.first[tmpl.NumVars()] != tmpl.NumClauses() {
		t.Fatalf("%s: clause groups span [%d, %d), want [0, %d)",
			name, tmpl.first[0], tmpl.first[tmpl.NumVars()], tmpl.NumClauses())
	}
	for s := range tmpl.NumVars() {
		group := tmpl.clauses(s)
		if tmpl.inputSlot[s] >= 0 && len(group) > 0 {
			t.Errorf("%s: input slot %d defines %d clauses", name, s, len(group))
		}
		for _, c := range group {
			top := Var(-1)
			for _, l := range c {
				top = max(top, l.Var())
			}
			if top != Var(s) {
				t.Errorf("%s: clause %v in slot %d's group has largest slot %d", name, c, s, top)
			}
		}
	}
}

// checkStampFixed stamps nl with every input outside free fixed to its
// value in vals and the free inputs shared with fresh variables, then
// checks the partial stamp against the simulator on every assignment
// of the free inputs: each gate's constant or literal must carry the
// simulated value, and the stamped clauses must determine every
// variable and hold. It also checks the clause-grouping rule, that
// substitution reached its fixpoint and that no more variables were
// allocated than a full stamp takes.
func checkStampFixed(t *testing.T, nl *netlist.Netlist, free []int, vals []bool) {
	t.Helper()
	tmpl, err := CompileTemplate(nl)
	if err != nil {
		t.Fatal(err)
	}
	checkClauseGroups(t, nl.Name, tmpl)
	f := NewFormula()
	shared := make(map[int]Var, len(free))
	for _, p := range free {
		shared[p] = f.NewVar()
	}
	fixed := make(map[int]bool)
	for p := range nl.Inputs {
		if _, ok := shared[p]; !ok {
			fixed[p] = vals[p]
		}
	}
	lits, ok := tmpl.stamp(f, shared, fixed)
	if !ok {
		t.Fatal("stamp reported a contradiction on a bare formula")
	}
	if got, full := f.NumVars-len(shared), tmpl.NumVars()-len(shared); got > full {
		t.Errorf("partial stamp allocated %d variables, a full stamp %d", got, full)
	}
	if len(fixed) > 0 {
		// bins holds every binary clause both ways round.
		bins := make(map[[2]Lit]bool)
		for _, c := range f.Clauses {
			vars := make(map[Var]bool)
			for _, l := range c {
				vars[l.Var()] = true
			}
			if len(vars) < 2 {
				t.Errorf("stamped clause %v has fewer than two variables: substitution stopped short", c)
			}
			if len(c) == 2 {
				bins[[2]Lit{c[0], c[1]}] = true
				bins[[2]Lit{c[1], c[0]}] = true
			}
		}
		for b := range bins {
			x, l := b[0], b[1]
			if int(x.Var()) < len(shared) {
				continue // a free input, not a stamped slot
			}
			if bins[[2]Lit{x, l.Not()}] {
				t.Errorf("stamped clauses (%v∨%v) and (%v∨%v) fix %v: substitution stopped short", x, l, x, l.Not(), x)
			}
			if bins[[2]Lit{x.Not(), l.Not()}] {
				t.Errorf("stamped clauses (%v∨%v) and (%v∨%v) make %v an alias: substitution stopped short", x, l, x.Not(), l.Not(), x)
			}
		}
	}
	g := NewFormula()
	for range free {
		g.NewVar()
	}
	outs, ok := tmpl.StampFixed(g, shared, fixed)
	if !ok {
		t.Fatal("StampFixed reported a contradiction on a bare formula")
	}
	for i, slot := range tmpl.outputs {
		if outs[i] != lits[slot] {
			t.Errorf("StampFixed output %d is %v, the stamp's slot holds %v", i, outs[i], lits[slot])
		}
	}

	sim, err := netlist.NewSimulator(nl)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]bool, len(nl.Inputs))
	assign := make([]int8, f.NumVars)
	for m := 0; m < 1<<len(free); m++ {
		copy(in, vals)
		clear(assign)
		for j, p := range free {
			in[p] = m>>j&1 == 1
			assign[shared[p]] = -1
			if in[p] {
				assign[shared[p]] = 1
			}
		}
		sim.Eval(in)
		if err := unitPropagate(f, assign); err != nil {
			t.Fatalf("free assignment %b: %v", m, err)
		}
		for id, slot := range tmpl.gateSlots {
			want := sim.Value(id)&1 == 1
			var got bool
			switch l := lits[slot]; l {
			case LitTrue, LitFalse:
				got = l == LitTrue
			default:
				got = (assign[l.Var()] > 0) != l.Neg()
			}
			if got != want {
				t.Fatalf("free assignment %b: gate %s (%s, stamped as %v) is %v, simulator says %v",
					m, nl.Gates[id].Name, nl.Gates[id].Type, lits[slot], got, want)
			}
		}
	}
}

// unitPropagate extends assign (+1 true, -1 false, 0 unassigned) by
// unit propagation over f to its fixpoint. It fails when a clause is
// falsified or a variable is left unassigned.
func unitPropagate(f *Formula, assign []int8) error {
	for changed := true; changed; {
		changed = false
		for _, c := range f.Clauses {
			free, unit, satisfied := 0, Lit(0), false
			for _, l := range c {
				switch v := assign[l.Var()]; {
				case v == 0:
					free++
					unit = l
				case (v > 0) != l.Neg():
					satisfied = true
				}
			}
			switch {
			case satisfied:
			case free == 0:
				return fmt.Errorf("clause %v falsified", c)
			case free == 1:
				assign[unit.Var()] = 1
				if unit.Neg() {
					assign[unit.Var()] = -1
				}
				changed = true
			}
		}
	}
	for v, a := range assign {
		if a == 0 {
			return fmt.Errorf("variable %d left unassigned", v)
		}
	}
	return nil
}

// TestStampFixedDifferential checks partial stamps of netlists over
// every gate type against the simulator, with 0 to 8 free inputs.
func TestStampFixedDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		inputs := 1 + rng.Intn(12)
		nl := allTypesNetlist(rng, inputs, 11+rng.Intn(60))
		free := rng.Perm(inputs)[:rng.Intn(min(inputs, 8)+1)]
		vals := make([]bool, inputs)
		for p := range vals {
			vals[p] = rng.Intn(2) == 1
		}
		checkStampFixed(t, nl, free, vals)
	}
}

// FuzzStampFixed is the differential property of
// TestStampFixedDifferential over fuzzed netlists: freeMask picks the
// free inputs (at most 8), the seed everything else.
func FuzzStampFixed(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(30), uint16(0b101001))
	f.Add(int64(2), uint8(10), uint8(70), uint16(0))
	f.Add(int64(3), uint8(3), uint8(11), uint16(0b111))
	f.Fuzz(func(t *testing.T, seed int64, inputs, gates uint8, freeMask uint16) {
		rng := rand.New(rand.NewSource(seed))
		nIn := 1 + int(inputs%12)
		nl := allTypesNetlist(rng, nIn, 1+int(gates%96))
		var free []int
		for p := 0; p < nIn && len(free) < 8; p++ {
			if freeMask>>p&1 == 1 {
				free = append(free, p)
			}
		}
		vals := make([]bool, nIn)
		for p := range vals {
			vals[p] = rng.Intn(2) == 1
		}
		checkStampFixed(t, nl, free, vals)
	})
}
