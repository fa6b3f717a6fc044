package netlist

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
)

// RandomProfile parameterizes synthetic circuit generation. The
// benchmark package layers ISCAS-profile presets on top of this.
type RandomProfile struct {
	Name    string
	Inputs  int
	Outputs int
	Gates   int // logic gate count target (achieved within a few %)
	// Mix gives relative weights of generated gate types. A zero Mix
	// defaults to an ISCAS-like blend dominated by NAND/NOR.
	Mix map[GateType]float64
	// MaxFanin bounds n-ary gate fanin (default 2; ISCAS circuits use
	// mostly 2-input gates with occasional wide gates).
	MaxFanin int
	// Locality biases non-frontier fanin selection toward recently
	// created gates, producing deep, narrow circuits like real designs
	// rather than shallow random DAGs. 0 disables the bias.
	Locality float64
}

func defaultMix() map[GateType]float64 {
	return map[GateType]float64{
		Nand: 0.30, Nor: 0.15, And: 0.18, Or: 0.12,
		Not: 0.12, Xor: 0.07, Xnor: 0.03, Buf: 0.03,
	}
}

// Random generates a pseudo-random combinational netlist matching the
// profile, deterministically from the seed.
//
// The generator maintains a frontier of gates that do not yet drive
// anything. While the frontier exceeds the output count, new gates
// preferentially consume frontier gates; leftover frontier gates are
// merged pairwise at the end. Because only frontier gates lack fanout
// and every frontier gate becomes (or feeds) a primary output, every
// generated gate is live — the circuit needs no pruning and matches
// the requested size.
func Random(p RandomProfile, seed int64) (*Netlist, error) {
	if p.Inputs < 1 || p.Outputs < 1 || p.Gates < 2 {
		return nil, fmt.Errorf("netlist: invalid random profile %+v", p)
	}
	mix := p.Mix
	if len(mix) == 0 {
		mix = defaultMix()
	}
	maxFanin := p.MaxFanin
	if maxFanin < 2 {
		maxFanin = 2
	}
	rng := rand.New(rand.NewSource(seed))

	types := make([]GateType, 0, len(mix))
	weights := make([]float64, 0, len(mix))
	total := 0.0
	for _, t := range []GateType{And, Nand, Or, Nor, Xor, Xnor, Not, Buf} {
		if w := mix[t]; w > 0 {
			types = append(types, t)
			weights = append(weights, w)
			total += w
		}
	}
	pickType := func() GateType {
		x := rng.Float64() * total
		for i, w := range weights {
			if x < w {
				return types[i]
			}
			x -= w
		}
		return types[len(types)-1]
	}

	// The circuit ends near Inputs+Gates gates: size the gate list and
	// the name index for that once.
	size := p.Inputs + p.Gates
	n := &Netlist{Name: p.Name, Gates: make([]Gate, 0, size), byName: make(map[string]int, size)}
	// frontier holds each gate without fanout once; at[id] is its index
	// there, or -1. remove fills the hole with the last entry.
	frontier := make([]int, 0, p.Inputs+p.Outputs)
	var at []int
	push := func(id int) {
		for len(at) <= id {
			at = append(at, -1)
		}
		at[id] = len(frontier)
		frontier = append(frontier, id)
	}
	remove := func(i int) int {
		id, last := frontier[i], frontier[len(frontier)-1]
		frontier[i] = last
		at[last] = i
		frontier = frontier[:len(frontier)-1]
		at[id] = -1
		return id
	}
	popRandom := func() int { return remove(rng.Intn(len(frontier))) }
	inFrontier := func(id int) bool { return id < len(at) && at[id] >= 0 }
	var name []byte
	gateName := func(prefix string, i int) string {
		name = strconv.AppendInt(append(name[:0], prefix...), int64(i), 10)
		return string(name)
	}

	for i := 0; i < p.Inputs; i++ {
		push(n.AddInput(gateName("pi", i)))
	}

	pickAny := func(hi int) int {
		if p.Locality > 0 && rng.Float64() < p.Locality {
			window := hi / 4
			if window < p.Inputs {
				window = p.Inputs
			}
			if window > hi {
				window = hi
			}
			return hi - 1 - rng.Intn(window)
		}
		return rng.Intn(hi)
	}

	// Reserve budget for the final pairwise merge of surplus frontier.
	target := p.Gates
	var fanin []int
	for g := 0; g < target; g++ {
		surplus := len(frontier) - p.Outputs
		if remaining := target - g; surplus >= remaining {
			break // leave the rest of the budget to the merge phase
		}
		t := pickType()
		arity := 1
		switch t {
		case Not, Buf:
			arity = 1
		default:
			arity = 2
			if maxFanin > 2 && rng.Float64() < 0.08 {
				arity = 2 + rng.Intn(maxFanin-1)
			}
		}
		if arity > len(n.Gates) {
			arity = len(n.Gates)
		}
		if arity < 2 && t != Not && t != Buf {
			t = Buf
			arity = 1
		}
		fanin = fanin[:0]
		for len(fanin) < arity {
			var f int
			fromFrontier := false
			if len(frontier) > p.Outputs && (len(fanin) == 0 || rng.Float64() < 0.4) {
				f = popRandom()
				fromFrontier = true
			} else {
				f = pickAny(len(n.Gates))
			}
			if slices.Contains(fanin, f) {
				if fromFrontier {
					push(f) // keep it alive; it was not consumed
				}
				ok := false
				for try := 0; try < 8; try++ {
					f = rng.Intn(len(n.Gates))
					if !slices.Contains(fanin, f) {
						ok = true
						break
					}
				}
				if !ok {
					continue
				}
			}
			if inFrontier(f) {
				remove(at[f])
			}
			fanin = append(fanin, f)
		}
		id := n.AddGate(gateName("g", len(n.Gates)-p.Inputs), t, fanin...)
		push(id)
	}

	// Merge surplus frontier gates pairwise until it fits the output
	// count; each merge is a live 2-input gate.
	for len(frontier) > p.Outputs {
		a := popRandom()
		b := popRandom()
		if a == b {
			push(a)
			continue
		}
		t := pickType()
		if t == Not || t == Buf {
			t = Xor
		}
		id := n.AddGate(gateName("g", len(n.Gates)-p.Inputs), t, a, b)
		push(id)
	}

	// Frontier gates become primary outputs; top up with the deepest
	// gates if the frontier came up short.
	chosen := make([]bool, len(n.Gates))
	for _, id := range frontier {
		chosen[id] = true
	}
	for id, outs := len(n.Gates)-1, len(frontier); id >= 0 && outs < p.Outputs; id-- {
		if !chosen[id] {
			chosen[id] = true
			outs++
		}
	}
	for id := range n.Gates {
		if chosen[id] {
			n.MarkOutput(id)
		}
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return n, nil
}
