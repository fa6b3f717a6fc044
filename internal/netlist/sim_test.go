package netlist

import (
	"fmt"
	"math/rand"
	"testing"
)

// refEval is the reference the compiled simulator is checked against:
// it evaluates every gate of n on one word of patterns by memoized
// recursion over fanins, straight from the gate semantics, with gate
// force (when >= 0) replaced by w. An Input gate that is not a primary
// input reads 0.
func refEval(n *Netlist, in []uint64, force int, w uint64) []uint64 {
	vals := make([]uint64, len(n.Gates))
	done := make([]bool, len(n.Gates))
	primary := map[int]int{}
	for i, id := range n.Inputs {
		primary[id] = i
	}
	var eval func(id int) uint64
	eval = func(id int) uint64 {
		if done[id] {
			return vals[id]
		}
		g := &n.Gates[id]
		var v uint64
		fanin := make([]uint64, len(g.Fanin))
		for i, f := range g.Fanin {
			fanin[i] = eval(f)
		}
		pos, isPrimary := primary[id]
		switch {
		case id == force:
			v = w
		case isPrimary:
			v = in[pos]
		case g.Type == Input, g.Type == Const0:
			v = 0
		case g.Type == Const1:
			v = ^uint64(0)
		case g.Type == Not:
			v = ^fanin[0]
		case g.Type == Buf:
			v = fanin[0]
		case g.Type == Mux:
			v = fanin[1]&^fanin[0] | fanin[2]&fanin[0]
		default:
			v = fanin[0]
			for _, x := range fanin[1:] {
				switch g.Type {
				case And, Nand:
					v &= x
				case Or, Nor:
					v |= x
				case Xor, Xnor:
					v ^= x
				}
			}
			if g.Type == Nand || g.Type == Nor || g.Type == Xnor {
				v = ^v
			}
		}
		vals[id], done[id] = v, true
		return v
	}
	for id := range n.Gates {
		eval(id)
	}
	return vals
}

// diffNetlist builds a random netlist of every gate type the simulator
// compiles: AND to XNOR with 2–5 fanins, NOT and BUF, MUX, both
// constants, gates that read one fanin twice, an Input gate that no
// primary input loads, and outputs that are a primary input and a
// constant beside logic gates.
func diffNetlist(rng *rand.Rand, inputs, gates int) *Netlist {
	n := New("diff")
	for i := 0; i < inputs; i++ {
		n.AddInput(fmt.Sprintf("i%d", i))
	}
	n.addGate("floating", Input, nil)
	c0 := n.AddGate("c0", Const0)
	c1 := n.AddGate("c1", Const1)
	types := []GateType{And, Nand, Or, Nor, Xor, Xnor, Not, Buf, Mux}
	for g := 0; g < gates; g++ {
		t := types[g%len(types)]
		k := 2 + rng.Intn(4)
		switch t {
		case Not, Buf:
			k = 1
		case Mux:
			k = 3
		}
		fanin := make([]int, k)
		for j := range fanin {
			fanin[j] = rng.Intn(len(n.Gates))
		}
		if k > 1 && rng.Intn(4) == 0 {
			fanin[k-1] = fanin[0]
		}
		n.AddGate(fmt.Sprintf("g%d", g), t, fanin...)
	}
	n.MarkOutput(n.Inputs[inputs-1])
	n.MarkOutput(c0)
	n.MarkOutput(c1)
	for id := len(n.Gates) - 6; id < len(n.Gates); id++ {
		n.MarkOutput(id)
	}
	return n
}

// checkAgainstRef compares the simulator's outputs and every gate's
// Value with the reference evaluation want.
func checkAgainstRef(t *testing.T, n *Netlist, sim *Simulator, out, want []uint64, what string) {
	t.Helper()
	for i, id := range n.Outputs {
		if out[i] != want[id] {
			t.Fatalf("%s: output %d (gate %q) = %#x, want %#x", what, i, n.Gates[id].Name, out[i], want[id])
		}
	}
	for id := range n.Gates {
		if got := sim.Value(id); got != want[id] {
			t.Fatalf("%s: Value(%q) = %#x, want %#x", what, n.Gates[id].Name, got, want[id])
		}
	}
}

// Property: Run, Value and RunForced agree with the reference evaluator
// on random netlists of every gate type, and a forced run leaves no
// trace in the next plain run.
func TestSimulatorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 30; trial++ {
		n := diffNetlist(rng, 1+rng.Intn(10), 20+rng.Intn(80))
		sim, err := NewSimulator(n)
		if err != nil {
			t.Fatal(err)
		}
		in := make([]uint64, len(n.Inputs))
		for round := 0; round < 4; round++ {
			for i := range in {
				in[i] = rng.Uint64()
			}
			what := fmt.Sprintf("trial %d round %d", trial, round)
			checkAgainstRef(t, n, sim, sim.Run(in), refEval(n, in, -1, 0), what)
			// A primary input, the floating input, a constant, an output
			// gate and a random gate, each forced to a random word.
			floating, _ := n.GateID("floating")
			c1, _ := n.GateID("c1")
			for _, id := range []int{n.Inputs[0], floating, c1, n.Outputs[len(n.Outputs)-1], rng.Intn(len(n.Gates))} {
				w := rng.Uint64()
				forced := fmt.Sprintf("%s forcing %q", what, n.Gates[id].Name)
				checkAgainstRef(t, n, sim, sim.RunForced(in, id, w), refEval(n, in, id, w), forced)
			}
			checkAgainstRef(t, n, sim, sim.Run(in), refEval(n, in, -1, 0), what+" after forced runs")
		}
	}
}

func TestSimulatorRejectsIllegalArity(t *testing.T) {
	n := New("bad")
	a := n.AddInput("a")
	g := n.AddGate("g", And, a, a)
	n.Gates[g].Fanin = n.Gates[g].Fanin[:1]
	if _, err := NewSimulator(n); err == nil {
		t.Error("NewSimulator compiled a one-fanin AND")
	}
}

func TestRunAllocs(t *testing.T) {
	n := diffNetlist(rand.New(rand.NewSource(3)), 8, 200)
	sim, err := NewSimulator(n)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]uint64, len(n.Inputs))
	if a := testing.AllocsPerRun(100, func() { sim.Run(in) }); a != 0 {
		t.Errorf("Run allocates %v times per call, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { sim.RunForced(in, 20, 1) }); a != 0 {
		t.Errorf("RunForced allocates %v times per call, want 0", a)
	}
}

// AllPatterns yields, for 0–8 inputs, the words a bit-by-bit
// construction of every pattern gives, in the same order, and stops
// when yield says so.
func TestAllPatternsMatchesBitByBit(t *testing.T) {
	for ni := 0; ni <= 8; ni++ {
		var words [][]uint64
		var valids []uint64
		AllPatterns(ni, func(in []uint64, valid uint64) bool {
			words = append(words, append([]uint64(nil), in...))
			valids = append(valids, valid)
			return true
		})
		total := 1 << ni
		k := 0
		for base := 0; base < total; base += 64 {
			valid := ^uint64(0)
			if total-base < 64 {
				valid = 1<<uint(total-base) - 1
			}
			if k >= len(words) {
				t.Fatalf("%d inputs: %d words, want more", ni, len(words))
			}
			if valids[k] != valid {
				t.Errorf("%d inputs word %d: valid %#x, want %#x", ni, k, valids[k], valid)
			}
			for i := 0; i < ni; i++ {
				var w uint64
				for bit := 0; bit < 64 && base+bit < total; bit++ {
					if (base+bit)&(1<<i) != 0 {
						w |= 1 << bit
					}
				}
				if words[k][i] != w {
					t.Errorf("%d inputs word %d input %d: %#x, want %#x", ni, k, i, words[k][i], w)
				}
			}
			k++
		}
		if k != len(words) {
			t.Errorf("%d inputs: %d words, want %d", ni, len(words), k)
		}
	}
	calls := 0
	if AllPatterns(8, func([]uint64, uint64) bool { calls++; return calls < 2 }) || calls != 2 {
		t.Errorf("AllPatterns went on after yield returned false (%d calls)", calls)
	}
	for _, c := range []struct {
		ni, max int
		want    bool
	}{{16, 16, true}, {17, 16, false}, {29, 40, true}, {30, 40, false}} {
		if got := Exhaustive(c.ni, c.max); got != c.want {
			t.Errorf("Exhaustive(%d, %d) = %v, want %v", c.ni, c.max, got, c.want)
		}
	}
}
