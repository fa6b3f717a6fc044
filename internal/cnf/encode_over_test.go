package cnf_test

import (
	"math/rand"
	"testing"

	"repro/internal/cnf"
	"repro/internal/netlist"
	"repro/internal/sat"
)

// overCase is one random netlist with a random set of private inputs.
type overCase struct {
	nl      *netlist.Netlist
	private []int
}

// overCases draws random netlists (the default gate mix, then one rich
// in XOR, XNOR, NOT and BUF with up to 3 fanins) and, for each, a
// random set of 1–3 private input positions.
func overCases(t *testing.T, n int) []overCase {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	mixes := []map[netlist.GateType]float64{nil, {
		netlist.And: 1, netlist.Nand: 1, netlist.Or: 1, netlist.Nor: 1,
		netlist.Xor: 2, netlist.Xnor: 2, netlist.Not: 1, netlist.Buf: 1,
	}}
	var cases []overCase
	for i := 0; i < n; i++ {
		p := netlist.RandomProfile{Name: "over", Inputs: 8, Outputs: 4, Gates: 30 + rng.Intn(30),
			Mix: mixes[i%2], MaxFanin: 3, Locality: 0.5}
		nl, err := netlist.Random(p, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		private := rng.Perm(len(nl.Inputs))[:1+rng.Intn(3)]
		cases = append(cases, overCase{nl, private})
	}
	return cases
}

// cone marks every gate in the fanout cone of the private inputs.
func cone(nl *netlist.Netlist, private []int) []bool {
	in := make([]bool, nl.NumGates())
	for _, p := range private {
		in[nl.Inputs[p]] = true
	}
	for changed := true; changed; {
		changed = false
		for id, g := range nl.Gates {
			for _, f := range g.Fanin {
				if in[f] && !in[id] {
					in[id], changed = true, true
				}
			}
		}
	}
	return in
}

// TestEncodeOverReusesBaseOutsideCone checks that a copy encoded over a
// base reuses exactly the base's variables outside the private inputs'
// fanout cone: every gate outside it maps to the base's variable, every
// gate inside it to a fresh one, and every clause the copy adds
// mentions a fresh variable.
func TestEncodeOverReusesBaseOutsideCone(t *testing.T) {
	for i, c := range overCases(t, 100) {
		enc := cnf.NewEncoder()
		base, err := enc.Encode(c.nl, nil)
		if err != nil {
			t.Fatal(err)
		}
		baseVars, baseClauses := enc.F.NumVars, len(enc.F.Clauses)
		over, err := enc.EncodeOver(c.nl, base, c.private)
		if err != nil {
			t.Fatal(err)
		}
		inCone := cone(c.nl, c.private)
		seen := map[cnf.Var]bool{}
		for id := range c.nl.Gates {
			v := over.Vars[id]
			switch {
			case !inCone[id] && v != base.Vars[id]:
				t.Fatalf("case %d: gate %d outside the cone got variable %d, base has %d", i, id, v, base.Vars[id])
			case inCone[id] && (int(v) < baseVars || seen[v]):
				t.Fatalf("case %d: gate %d in the cone got variable %d, not a fresh one", i, id, v)
			}
			seen[v] = inCone[id]
		}
		for _, cl := range enc.F.Clauses[baseClauses:] {
			fresh := false
			for _, l := range cl {
				fresh = fresh || int(l.Var()) >= baseVars
			}
			if !fresh {
				t.Fatalf("case %d: clause %v added over the base mentions only base variables", i, cl)
			}
		}
		for p, v := range over.Inputs {
			if v != over.Vars[c.nl.Inputs[p]] {
				t.Fatalf("case %d: input %d maps to %d, its gate to %d", i, p, v, over.Vars[c.nl.Inputs[p]])
			}
		}
	}
}

// differ encodes two copies of nl sharing every input but the private
// ones, full (two Encode calls) or shared (Encode, then EncodeOver),
// plus "some output differs", with the shared inputs fixed to x. It
// returns the solver's verdict, the copies' variables and the model.
func differ(t *testing.T, c overCase, x []bool, shared bool) (sat.Status, *cnf.GateVars, *cnf.GateVars, []bool) {
	t.Helper()
	enc := cnf.NewEncoder()
	c1, err := enc.Encode(c.nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	var c2 *cnf.GateVars
	if shared {
		c2, err = enc.EncodeOver(c.nl, c1, c.private)
	} else {
		share := map[int]cnf.Var{}
		for p, v := range c1.Inputs {
			share[p] = v
		}
		for _, p := range c.private {
			delete(share, p)
		}
		c2, err = enc.Encode(c.nl, share)
	}
	if err != nil {
		t.Fatal(err)
	}
	var some []cnf.Lit
	for o := range c1.Outputs {
		some = append(some, cnf.MkLit(enc.EncodeXor2(cnf.MkLit(c1.Outputs[o], false), cnf.MkLit(c2.Outputs[o], false)), false))
	}
	enc.F.AddClause(some...)
	for p, v := range x {
		enc.AssertLit(cnf.MkLit(c1.Inputs[p], !v))
	}
	s := sat.New()
	s.AddFormula(enc.F)
	st := s.Solve()
	if st != sat.Sat {
		return st, c1, c2, nil
	}
	return st, c1, c2, s.Model()
}

// TestEncodeOverEquisatisfiable checks, for random assignments of the
// shared inputs, that "some output differs" is satisfiable over a copy
// encoded over its base exactly when it is over two full copies, and
// that every model of the shared encoding, simulated on both copies'
// inputs, really differs at an output and matches the encoded outputs.
func TestEncodeOverEquisatisfiable(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sats := 0
	for i, c := range overCases(t, 100) {
		sim, err := netlist.NewSimulator(c.nl)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 4; trial++ {
			x := make([]bool, len(c.nl.Inputs))
			for p := range x {
				x[p] = rng.Intn(2) == 1
			}
			want, _, _, _ := differ(t, c, x, false)
			got, c1, c2, model := differ(t, c, x, true)
			if got != want {
				t.Fatalf("case %d trial %d: shared encoding %v, two full copies %v", i, trial, got, want)
			}
			if got != sat.Sat {
				continue
			}
			sats++
			in1, in2 := make([]bool, len(x)), make([]bool, len(x))
			for p := range x {
				in1[p], in2[p] = model[c1.Inputs[p]], model[c2.Inputs[p]]
			}
			out1, out2 := sim.Eval(in1), sim.Eval(in2)
			differs := false
			for o := range out1 {
				if out1[o] != model[c1.Outputs[o]] || out2[o] != model[c2.Outputs[o]] {
					t.Fatalf("case %d trial %d: output %d encoded %v/%v, simulated %v/%v",
						i, trial, o, model[c1.Outputs[o]], model[c2.Outputs[o]], out1[o], out2[o])
				}
				differs = differs || out1[o] != out2[o]
			}
			if !differs {
				t.Fatalf("case %d trial %d: model's copies agree at every output", i, trial)
			}
		}
	}
	if sats == 0 {
		t.Fatal("no case was satisfiable: the test checked no model")
	}
	t.Logf("%d of 400 trials satisfiable", sats)
}
