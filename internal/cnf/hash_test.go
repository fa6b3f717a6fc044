package cnf

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/netlist"
)

// hashedValues evaluates a hashed encoding's output literals at one
// input assignment: it fixes the input variables, extends them by unit
// propagation, which must reach every variable without falsifying a
// clause, and reads each literal, constants included.
func hashedValues(t *testing.T, f *Formula, inputs, outs []Lit, in []bool) []bool {
	t.Helper()
	assign := make([]int8, f.NumVars)
	for i, l := range inputs {
		assign[l.Var()] = -1
		if in[i] {
			assign[l.Var()] = 1
		}
	}
	if err := unitPropagate(f, assign); err != nil {
		t.Fatalf("inputs %v: %v", in, err)
	}
	vals := make([]bool, len(outs))
	for i, o := range outs {
		switch o {
		case LitFalse, LitTrue:
			vals[i] = o == LitTrue
		default:
			vals[i] = (assign[o.Var()] > 0) != o.Neg()
		}
	}
	return vals
}

// TestHasherRules checks every folding and canonicalisation rule
// exhaustively: each gate type over 1–3 fanins, each fanin drawn from
// {x, ¬x, y, ¬y, 0, 1}, must evaluate like the gate on all four
// assignments of x and y.
func TestHasherRules(t *testing.T) {
	types := []netlist.GateType{
		netlist.And, netlist.Nand, netlist.Or, netlist.Nor, netlist.Xor, netlist.Xnor,
		netlist.Not, netlist.Buf, netlist.Mux,
	}
	operands := []string{"x", "¬x", "y", "¬y", "0", "1"}
	checked := 0
	for _, typ := range types {
		for arity := 1; arity <= 3; arity++ {
			if !typ.ArityOK(arity) {
				continue
			}
			pick := make([]int, arity)
			for {
				n := netlist.New("rule")
				x, y := n.AddInput("x"), n.AddInput("y")
				ids := []int{x, n.AddGate("nx", netlist.Not, x), y, n.AddGate("ny", netlist.Not, y),
					n.AddGate("c0", netlist.Const0), n.AddGate("c1", netlist.Const1)}
				fanin := make([]int, arity)
				name := typ.String() + "("
				for i, p := range pick {
					fanin[i] = ids[p]
					if i > 0 {
						name += ","
					}
					name += operands[p]
				}
				name += ")"
				n.MarkOutput(n.AddGate("g", typ, fanin...))
				sim, err := netlist.NewSimulator(n)
				if err != nil {
					t.Fatal(err)
				}
				h := NewHasher()
				inputs := h.Inputs(len(n.Inputs))
				outs, err := h.Encode(n, inputs)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for p := 0; p < 4; p++ {
					in := []bool{p&1 != 0, p&2 != 0}
					if got, want := hashedValues(t, h.F, inputs, outs, in)[0], sim.Eval(in)[0]; got != want {
						t.Errorf("%s at x=%v y=%v: hashed %v, gate %v", name, in[0], in[1], got, want)
					}
				}
				checked++
				i := 0
				for ; i < arity; i++ {
					if pick[i]++; pick[i] < len(operands) {
						break
					}
					pick[i] = 0
				}
				if i == arity {
					break
				}
			}
		}
	}
	if want := 6*(36+216) + 2*6 + 216; checked != want {
		t.Errorf("checked %d gates, want %d", checked, want)
	}
}

// TestHasherDifferential checks hashed encodings of random netlists
// over every gate type against the simulator, and that the clause
// stream is the same on every encoding of one netlist.
func TestHasherDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		inputs := 1 + rng.Intn(10)
		nl := allTypesNetlist(rng, inputs, 11+rng.Intn(60))
		sim, err := netlist.NewSimulator(nl)
		if err != nil {
			t.Fatal(err)
		}
		var first *Formula
		for rep := 0; rep < 2; rep++ {
			h := NewHasher()
			in := h.Inputs(len(nl.Inputs))
			outs, err := h.Encode(nl, in)
			if err != nil {
				t.Fatal(err)
			}
			if rep == 0 {
				first = h.F
				for p := 0; p < 16; p++ {
					x := make([]bool, inputs)
					for j := range x {
						x[j] = rng.Intn(2) == 1
					}
					if got, want := hashedValues(t, h.F, in, outs, x), sim.Eval(x); !reflect.DeepEqual(got, want) {
						t.Fatalf("netlist %d inputs %v: hashed %v, simulated %v", i, x, got, want)
					}
				}
			} else if !reflect.DeepEqual(h.F, first) {
				t.Fatalf("netlist %d: two encodings wrote different formulas", i)
			}
		}
	}
}

// TestHasherMergesCopies checks that a second copy of a netlist over
// the same inputs hashes onto the first node for node: the same output
// literals, and no new variable or clause.
func TestHasherMergesCopies(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		nl := allTypesNetlist(rng, 1+rng.Intn(10), 11+rng.Intn(60))
		h := NewHasher()
		in := h.Inputs(len(nl.Inputs))
		o1, err := h.Encode(nl, in)
		if err != nil {
			t.Fatal(err)
		}
		vars, clauses := h.F.NumVars, len(h.F.Clauses)
		o2, err := h.Encode(nl.Clone(), in)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(o1, o2) || h.F.NumVars != vars || len(h.F.Clauses) != clauses {
			t.Fatalf("netlist %d: second copy outputs %v (first %v), %d vars and %d clauses (first %d, %d)",
				i, o2, o1, h.F.NumVars, len(h.F.Clauses), vars, clauses)
		}
	}
}

func TestHasherInputCount(t *testing.T) {
	nl := netlist.New("n")
	nl.MarkOutput(nl.AddInput("a"))
	if _, err := NewHasher().Encode(nl, nil); err == nil {
		t.Fatal("encoded a one-input netlist over no input literals")
	}
}

// TestHasherBoundLockMergesWithOriginal checks the property that lets
// EquivalentSAT prove a correct key without a Solve call: a RIL lock
// bound with its key hashes onto the original circuit node for node,
// with every MUX of its blocks folded away.
func TestHasherBoundLockMergesWithOriginal(t *testing.T) {
	prof, _ := circuit.ProfileByName("c7552")
	orig, err := prof.Synthesize(0.1)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 20; seed++ {
		opt := core.Options{Blocks: 3, Size: core.Size2x2, Seed: seed}
		if seed%2 == 0 {
			opt = core.Options{Blocks: 1, Size: core.Size8x8, Seed: seed}
		}
		res, err := core.Lock(orig, opt)
		if err != nil {
			t.Fatal(err)
		}
		bound, err := res.ApplyKey(res.Key)
		if err != nil {
			t.Fatal(err)
		}
		h := NewHasher()
		in := h.Inputs(len(orig.Inputs))
		o1, err := h.Encode(orig, in)
		if err != nil {
			t.Fatal(err)
		}
		vars := h.F.NumVars
		o2, err := h.Encode(bound, in)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(o1, o2) || h.F.NumVars != vars {
			t.Errorf("seed %d (%v): bound lock adds %d nodes, outputs %v, original %v",
				seed, opt.Size, h.F.NumVars-vars, o2, o1)
		}
	}
}
