// Package circuit synthesizes gate-level netlists from word-level
// descriptions. It provides the benchmark suite used throughout the
// evaluation: functionally real CEP cores (AES round, SHA-256
// compression, MD5 steps, a GPS C/A Gold-code generator) plus
// ISCAS-profile synthetic circuits matched to the published gate and
// I/O counts of the benchmarks the paper locks (c7552, s35932, s38584,
// b15, b20).
package circuit

import (
	"fmt"
	"strconv"

	"repro/internal/netlist"
)

// Bus is a little-endian vector of gate IDs (bit 0 first).
type Bus []int

// Builder constructs a netlist through word-level operations. Every
// operation lowers immediately to gates, so the result is an ordinary
// gate-level netlist.
type Builder struct {
	N    *netlist.Netlist
	ctr  int
	name []byte // fresh's scratch buffer
}

// NewBuilder starts a circuit with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{N: netlist.New(name)}
}

// fresh returns the next gate name, prefix_ctr, with one allocation.
func (b *Builder) fresh(prefix string) string {
	b.ctr++
	b.name = append(append(b.name[:0], prefix...), '_')
	b.name = strconv.AppendInt(b.name, int64(b.ctr), 10)
	return string(b.name)
}

// Input declares a width-bit primary input bus named name[i].
func (b *Builder) Input(name string, width int) Bus {
	bus := make(Bus, width)
	for i := range bus {
		bus[i] = b.N.AddInput(fmt.Sprintf("%s[%d]", name, i))
	}
	return bus
}

// Output marks every bit of the bus as a primary output.
func (b *Builder) Output(bus Bus) {
	for _, id := range bus {
		b.N.MarkOutput(id)
	}
}

// Const materializes a width-bit constant.
func (b *Builder) Const(val uint64, width int) Bus {
	bus := make(Bus, width)
	for i := range bus {
		t := netlist.Const0
		if val&(1<<i) != 0 {
			t = netlist.Const1
		}
		bus[i] = b.N.AddGate(b.fresh("c"), t)
	}
	return bus
}

// Gate2 applies a 2-input gate bitwise across two equal-width buses.
func (b *Builder) gate2(t netlist.GateType, x, y Bus) Bus {
	if len(x) != len(y) {
		panic(fmt.Sprintf("circuit: width mismatch %d vs %d", len(x), len(y)))
	}
	out := make(Bus, len(x))
	for i := range x {
		out[i] = b.N.AddGate(b.fresh("g"), t, x[i], y[i])
	}
	return out
}

// Xor returns x ^ y bitwise.
func (b *Builder) Xor(x, y Bus) Bus { return b.gate2(netlist.Xor, x, y) }

// And returns x & y bitwise.
func (b *Builder) And(x, y Bus) Bus { return b.gate2(netlist.And, x, y) }

// Or returns x | y bitwise.
func (b *Builder) Or(x, y Bus) Bus { return b.gate2(netlist.Or, x, y) }

// Not returns ^x bitwise.
func (b *Builder) Not(x Bus) Bus {
	out := make(Bus, len(x))
	for i := range x {
		out[i] = b.N.AddGate(b.fresh("n"), netlist.Not, x[i])
	}
	return out
}

// Add returns (x + y) mod 2^w via a ripple-carry adder.
func (b *Builder) Add(x, y Bus) Bus {
	if len(x) != len(y) {
		panic("circuit: add width mismatch")
	}
	out := make(Bus, len(x))
	carry := -1
	for i := range x {
		axb := b.N.AddGate(b.fresh("s"), netlist.Xor, x[i], y[i])
		if carry < 0 {
			out[i] = axb
			carry = b.N.AddGate(b.fresh("cy"), netlist.And, x[i], y[i])
			continue
		}
		out[i] = b.N.AddGate(b.fresh("s"), netlist.Xor, axb, carry)
		g := b.N.AddGate(b.fresh("cy"), netlist.And, x[i], y[i])
		p := b.N.AddGate(b.fresh("cy"), netlist.And, axb, carry)
		carry = b.N.AddGate(b.fresh("cy"), netlist.Or, g, p)
	}
	return out
}

// RotR rotates right by k bits.
func (b *Builder) RotR(x Bus, k int) Bus {
	w := len(x)
	k %= w
	out := make(Bus, w)
	for i := range out {
		out[i] = x[(i+k)%w]
	}
	return out
}

// RotL rotates left by k bits.
func (b *Builder) RotL(x Bus, k int) Bus { return b.RotR(x, len(x)-k%len(x)) }

// Table implements a ROM lookup out = table[in] by Shannon-expansion
// mux trees, one per output bit. table values are little-endian over
// outW bits; len(table) must be 2^len(in).
func (b *Builder) Table(in Bus, table []uint64, outW int) Bus {
	if len(table) != 1<<len(in) {
		panic(fmt.Sprintf("circuit: table size %d, want %d", len(table), 1<<len(in)))
	}
	out := make(Bus, outW)
	for bit := 0; bit < outW; bit++ {
		leaves := make([]int, len(table))
		var c0, c1 int = -1, -1
		for i, v := range table {
			if v&(1<<bit) != 0 {
				if c1 < 0 {
					c1 = b.N.AddGate(b.fresh("t1"), netlist.Const1)
				}
				leaves[i] = c1
			} else {
				if c0 < 0 {
					c0 = b.N.AddGate(b.fresh("t0"), netlist.Const0)
				}
				leaves[i] = c0
			}
		}
		// Collapse level by level on successive select bits.
		for lvl := 0; lvl < len(in); lvl++ {
			next := make([]int, len(leaves)/2)
			for i := range next {
				a, c := leaves[2*i], leaves[2*i+1]
				if a == c {
					next[i] = a
					continue
				}
				next[i] = b.N.AddGate(b.fresh("t"), netlist.Mux, in[lvl], a, c)
			}
			leaves = next
		}
		out[bit] = leaves[0]
	}
	return out
}

// Uint64 packs up to 64 simulated bit values into a word (helper for
// tests and oracles).
func Uint64(bits []bool) uint64 {
	var v uint64
	for i, b := range bits {
		if b {
			v |= 1 << i
		}
	}
	return v
}

// Bits unpacks a value into w bools, little-endian.
func Bits(v uint64, w int) []bool {
	out := make([]bool, w)
	for i := range out {
		out[i] = v&(1<<i) != 0
	}
	return out
}
