package netlist

import (
	"bytes"
	"math/rand"
	"testing"
)

// Property: Prune never changes the circuit function, over random
// circuits with injected dead logic.
func TestPropertyPrunePreservesFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		nl, err := Random(RandomProfile{
			Name: "p", Inputs: 8 + rng.Intn(8), Outputs: 2 + rng.Intn(6),
			Gates: 50 + rng.Intn(200), Locality: rng.Float64() * 0.9,
		}, rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		// Inject dead gates.
		a := nl.Inputs[rng.Intn(len(nl.Inputs))]
		d1 := nl.AddGate(nl.FreshName("dead"), Not, a)
		nl.AddGate(nl.FreshName("dead"), And, d1, a)
		before := nl.Clone()
		removed := nl.Prune()
		if removed < 2 {
			t.Fatalf("trial %d: dead logic survived (%d removed)", trial, removed)
		}
		eq, cex, err := Equivalent(before, nl, 10, 6, rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Fatalf("trial %d: prune changed function, cex=%v", trial, cex)
		}
	}
}

// Property: .bench round trip is the identity on function, over random
// circuits of varied shape.
func TestPropertyBenchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 15; trial++ {
		nl, err := Random(RandomProfile{
			Name: "rt", Inputs: 6 + rng.Intn(10), Outputs: 2 + rng.Intn(5),
			Gates: 40 + rng.Intn(150), Locality: rng.Float64(),
			MaxFanin: 2 + rng.Intn(3),
		}, rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := nl.WriteBench(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ParseBench("rt", &buf)
		if err != nil {
			t.Fatal(err)
		}
		eq, cex, err := Equivalent(nl, back, 10, 6, rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Fatalf("trial %d: round trip changed function, cex=%v", trial, cex)
		}
	}
}

// Property: Clone is deeply independent — mutating the clone never
// affects the original.
func TestPropertyCloneIndependence(t *testing.T) {
	nl, err := Random(RandomProfile{Name: "cl", Inputs: 8, Outputs: 4, Gates: 80, Locality: 0.5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	sim1, _ := NewSimulator(nl)
	in := make([]bool, len(nl.Inputs))
	ref := append([]bool(nil), sim1.Eval(in)...)

	c := nl.Clone()
	// Vandalize the clone.
	for i := range c.Gates {
		if c.Gates[i].Type == And {
			c.Gates[i].Type = Or
		}
	}
	c.RedirectFanout(c.Outputs[0], c.Inputs[0])

	sim2, _ := NewSimulator(nl)
	got := sim2.Eval(in)
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatal("mutating the clone changed the original")
		}
	}
}

// Property: BindInputs with an empty position list is a functional
// identity.
func TestPropertyBindNothing(t *testing.T) {
	nl, err := Random(RandomProfile{Name: "b", Inputs: 8, Outputs: 4, Gates: 60, Locality: 0.5}, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := nl.BindInputs(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	eq, _, err := Equivalent(nl, b, 10, 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("BindInputs(nil) changed function")
	}
}

// Property: binding inputs to constants agrees with simulation under
// those constants, and writes the same .bench text as binding one
// input at a time (bindOneByOne). Input 0 is also a primary output
// and is bound in every trial, so a rewrite that skips Outputs fails.
func TestPropertyBindMatchesSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	nl, err := Random(RandomProfile{Name: "bm", Inputs: 10, Outputs: 5, Gates: 120, Locality: 0.6}, 11)
	if err != nil {
		t.Fatal(err)
	}
	nl.MarkOutput(nl.Inputs[0])
	for trial := 0; trial < 10; trial++ {
		// Bind a random subset of inputs, always including input 0.
		var positions []int
		var values []bool
		for p := range nl.Inputs {
			if p == 0 || rng.Intn(2) == 0 {
				positions = append(positions, p)
				values = append(values, rng.Intn(2) == 1)
			}
		}
		rng.Shuffle(len(positions), func(i, j int) {
			positions[i], positions[j] = positions[j], positions[i]
			values[i], values[j] = values[j], values[i]
		})
		bound, err := nl.BindInputs(positions, values)
		if err != nil {
			t.Fatal(err)
		}
		var text, ref bytes.Buffer
		if err := bound.WriteBench(&text); err != nil {
			t.Fatal(err)
		}
		if err := bindOneByOne(nl, positions, values).WriteBench(&ref); err != nil {
			t.Fatal(err)
		}
		if text.String() != ref.String() {
			t.Fatalf("trial %d: BindInputs writes\n%s\nwant\n%s", trial, text.String(), ref.String())
		}
		// Evaluate both on a random assignment of the free inputs.
		full := make([]bool, len(nl.Inputs))
		for i := range full {
			full[i] = rng.Intn(2) == 1
		}
		for i, p := range positions {
			full[p] = values[i]
		}
		var free []bool
		isBound := map[int]bool{}
		for _, p := range positions {
			isBound[p] = true
		}
		for p, v := range full {
			if !isBound[p] {
				free = append(free, v)
			}
		}
		s1, _ := NewSimulator(nl)
		s2, _ := NewSimulator(bound)
		want := s1.Eval(full)
		got := s2.Eval(free)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("trial %d: bound simulation differs at output %d", trial, i)
			}
		}
	}
}

// bindOneByOne is the reference for BindInputs: it adds each bound
// input's constant and redirects that input's readers and output marks
// with its own RedirectFanout scan, in the order of positions.
func bindOneByOne(n *Netlist, positions []int, values []bool) *Netlist {
	c := n.Clone()
	bound := map[int]bool{}
	for i, pos := range positions {
		bound[pos] = true
		id := c.Inputs[pos]
		t := Const0
		if values[i] {
			t = Const1
		}
		c.RedirectFanout(id, c.AddGate(c.FreshName(c.Gates[id].Name+"_bound"), t))
	}
	var kept []int
	for pos, id := range c.Inputs {
		if !bound[pos] {
			kept = append(kept, id)
		}
	}
	c.Inputs = kept
	c.Prune()
	return c
}
