package netlist

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// Simulator evaluates a netlist bit-parallel: each signal is a uint64
// carrying 64 independent input patterns. NewSimulator compiles the
// netlist once into a flat program of word operations in topological
// order, and Run executes that program. A Simulator sees the netlist as
// it was compiled: later edits to its gates, inputs or outputs do not
// reach it.
type Simulator struct {
	name string
	prog []step
	end  []int32 // end[id]: the index just past gate id's last step (first forced run builds it)
	ins  []int32 // gate IDs of the primary inputs
	outs []int32 // gate IDs of the primary outputs
	vals []uint64
	out  []uint64 // Run's reusable output buffer
	evIn []uint64 // Eval's reusable input-word scratch
}

// opcode is a program step's word operation.
type opcode uint8

const (
	opAnd    opcode = iota // dst = a & b
	opNand                 // dst = ^(a & b)
	opOr                   // dst = a | b
	opNor                  // dst = ^(a | b)
	opXor                  // dst = a ^ b
	opXnor                 // dst = ^(a ^ b)
	opNot                  // dst = ^a
	opBuf                  // dst = a
	opMux                  // dst = b where a is 0, c where a is 1 (a: the select)
	opConst0               // dst = 0
	opConst1               // dst = all ones
)

// step is one operation of a compiled program. args holds its operands
// a, b and c; they and dst index the simulator's value slots, one per
// gate ID.
type step struct {
	op   opcode
	dst  int32
	args [3]int32
}

// foldOps gives, for each n-ary gate type, the step that folds one
// more fanin into the gate's output and the step that folds in the
// last one, which inverts for NAND, NOR and XNOR.
var foldOps = [numGateTypes][2]opcode{
	And: {opAnd, opAnd}, Nand: {opAnd, opNand},
	Or: {opOr, opOr}, Nor: {opOr, opNor},
	Xor: {opXor, opXor}, Xnor: {opXor, opXnor},
}

// NewSimulator compiles the netlist for simulation. It returns an
// error if the netlist is cyclic or holds a gate of an unsupported type
// or an illegal fanin count.
func NewSimulator(n *Netlist) (*Simulator, error) {
	order, err := n.TopoOrder()
	if err != nil {
		return nil, err
	}
	steps := 0 // an upper bound: an n-ary gate takes one step per fanin after its first
	for i := range n.Gates {
		steps += max(1, len(n.Gates[i].Fanin)-1)
	}
	s := &Simulator{
		name: n.Name,
		prog: make([]step, 0, steps),
		ins:  make([]int32, len(n.Inputs)),
		outs: make([]int32, len(n.Outputs)),
		vals: make([]uint64, len(n.Gates)),
		out:  make([]uint64, len(n.Outputs)),
	}
	primary := make([]bool, len(n.Gates))
	for i, id := range n.Inputs {
		s.ins[i] = int32(id)
		primary[id] = true
	}
	for i, id := range n.Outputs {
		s.outs[i] = int32(id)
	}
	for _, id := range order {
		if err := s.compile(n, id, primary[id]); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// compile appends the steps that compute gate id. An n-ary gate chains
// through its own value slot: its first step combines fanins 0 and 1,
// and each later step folds the next fanin into the slot.
func (s *Simulator) compile(n *Netlist, id int, primary bool) error {
	g := &n.Gates[id]
	fin := g.Fanin
	if !g.Type.ArityOK(len(fin)) {
		return fmt.Errorf("netlist %q: gate %q (%s) has illegal arity %d", n.Name, g.Name, g.Type, len(fin))
	}
	switch g.Type {
	case Input:
		if !primary {
			s.emit(opConst0, id) // an Input gate no primary input loads reads 0
		}
	case Const0:
		s.emit(opConst0, id)
	case Const1:
		s.emit(opConst1, id)
	case Not:
		s.emit(opNot, id, fin[0])
	case Buf:
		s.emit(opBuf, id, fin[0])
	case Mux:
		s.emit(opMux, id, fin...)
	case And, Nand, Or, Nor, Xor, Xnor:
		fold := foldOps[g.Type]
		acc := fin[0]
		for k := 1; k < len(fin); k++ {
			op := fold[0]
			if k == len(fin)-1 {
				op = fold[1]
			}
			s.emit(op, id, acc, fin[k])
			acc = id
		}
	default:
		return fmt.Errorf("netlist %q: gate %q has unsupported type %s", n.Name, g.Name, g.Type)
	}
	return nil
}

// emit appends one step writing dst from up to three operands.
func (s *Simulator) emit(op opcode, dst int, operands ...int) {
	st := step{op: op, dst: int32(dst)}
	for i, o := range operands {
		st.args[i] = int32(o)
	}
	s.prog = append(s.prog, st)
}

// Run evaluates 64 input patterns at once. in[i] carries the 64 values
// of primary input i; the result carries the 64 values of each primary
// output. The returned slice is reused across calls — copy it if you
// need to retain it.
func (s *Simulator) Run(in []uint64) []uint64 { return s.run(in, -1, 0) }

// RunForced is Run with gate id's word forced to w on every pattern:
// its readers, its Value and, if it is an output, its output word all
// see w. Fault simulation uses it to inject a stuck-at fault.
func (s *Simulator) RunForced(in []uint64, id int, w uint64) []uint64 { return s.run(in, id, w) }

// run loads the inputs and executes the program, writing w into gate
// force's slot right after the step that finishes it when force >= 0.
func (s *Simulator) run(in []uint64, force int, w uint64) []uint64 {
	if len(in) != len(s.ins) {
		panic(fmt.Sprintf("netlist %q: Run got %d input words, want %d",
			s.name, len(in), len(s.ins)))
	}
	for i, id := range s.ins {
		s.vals[id] = in[i]
	}
	if force < 0 {
		s.exec(s.prog)
	} else {
		if s.end == nil {
			// A primary input has no step, so its end stays 0: it is
			// forced right after loading.
			s.end = make([]int32, len(s.vals))
			for i, st := range s.prog {
				s.end[st.dst] = int32(i + 1)
			}
		}
		k := s.end[force]
		s.exec(s.prog[:k])
		s.vals[force] = w
		s.exec(s.prog[k:])
	}
	for i, id := range s.outs {
		s.out[i] = s.vals[id]
	}
	return s.out
}

func (s *Simulator) exec(prog []step) {
	v := s.vals
	for i := range prog {
		st := &prog[i]
		a, b := st.args[0], st.args[1]
		switch st.op {
		case opAnd:
			v[st.dst] = v[a] & v[b]
		case opNand:
			v[st.dst] = ^(v[a] & v[b])
		case opOr:
			v[st.dst] = v[a] | v[b]
		case opNor:
			v[st.dst] = ^(v[a] | v[b])
		case opXor:
			v[st.dst] = v[a] ^ v[b]
		case opXnor:
			v[st.dst] = ^(v[a] ^ v[b])
		case opNot:
			v[st.dst] = ^v[a]
		case opBuf:
			v[st.dst] = v[a]
		case opMux:
			sel := v[a]
			v[st.dst] = v[b]&^sel | v[st.args[2]]&sel
		case opConst0:
			v[st.dst] = 0
		case opConst1:
			v[st.dst] = ^uint64(0)
		}
	}
}

// Value returns the last simulated word for the given gate ID.
func (s *Simulator) Value(id int) uint64 { return s.vals[id] }

// Eval evaluates a single Boolean input assignment. Unlike Run, the
// returned slice is freshly allocated: scalar callers (oracles,
// decoders) routinely retain it across evaluations.
func (s *Simulator) Eval(in []bool) []bool {
	if s.evIn == nil {
		s.evIn = make([]uint64, len(s.ins))
	}
	words := s.evIn
	for i, b := range in {
		words[i] = 0
		if b {
			words[i] = 1
		}
	}
	outw := s.Run(words)
	out := make([]bool, len(outw))
	for i, w := range outw {
		out[i] = w&1 != 0
	}
	return out
}

// laneWords are the words of inputs 0–5 in an exhaustive sweep: lane b
// of word i is bit i of b.
var laneWords = [6]uint64{
	0xaaaaaaaaaaaaaaaa, 0xcccccccccccccccc, 0xf0f0f0f0f0f0f0f0,
	0xff00ff00ff00ff00, 0xffff0000ffff0000, 0xffffffff00000000,
}

// Exhaustive reports whether a netlist of ni inputs is simulated over
// every input pattern under a ceiling of maxInputs: at most maxInputs
// inputs, and fewer than 30 whatever the ceiling. Above it, callers
// sample random patterns instead.
func Exhaustive(ni, maxInputs int) bool { return ni <= maxInputs && ni < 30 }

// AllPatterns calls yield with the input words of all 2^ni input
// patterns of a netlist with ni inputs, 64 patterns a word in
// ascending order: lane b of the k-th call's words is pattern 64k+b,
// whose input i is bit i of that number. valid marks the lanes that
// hold a pattern; it is all ones unless ni < 6. Inputs 0–5 take the
// lane constants and the rest whole-word constants. yield must not
// modify in. AllPatterns stops and returns false when yield returns
// false; ni must be small enough that Exhaustive holds.
func AllPatterns(ni int, yield func(in []uint64, valid uint64) bool) bool {
	in := make([]uint64, ni)
	total := 1 << ni
	valid := ^uint64(0)
	if total < 64 {
		valid = 1<<total - 1
	}
	for i := 0; i < ni && i < len(laneWords); i++ {
		in[i] = laneWords[i] & valid
	}
	for base := 0; base < total; base += 64 {
		for i := len(laneWords); i < ni; i++ {
			in[i] = -uint64(base >> i & 1)
		}
		if !yield(in, valid) {
			return false
		}
	}
	return true
}

// Equivalent checks, by exhaustive simulation when Exhaustive(inputs,
// maxExhaustive) holds and by nSamples random 64-pattern rounds
// otherwise, whether two netlists with identical input/output
// signatures compute the same function. It reports the first
// counterexample found, if any. This is a fast pre-filter; tests that
// need a proof use the SAT-based equivalence check in internal/attack.
func Equivalent(a, b *Netlist, maxExhaustive, nSamples int, seed int64) (bool, []bool, error) {
	if len(a.Inputs) != len(b.Inputs) || len(a.Outputs) != len(b.Outputs) {
		return false, nil, fmt.Errorf("netlist: signature mismatch %d/%d inputs, %d/%d outputs",
			len(a.Inputs), len(b.Inputs), len(a.Outputs), len(b.Outputs))
	}
	sa, err := NewSimulator(a)
	if err != nil {
		return false, nil, err
	}
	sb, err := NewSimulator(b)
	if err != nil {
		return false, nil, err
	}
	// sa and sb own separate output buffers, so both results stay valid
	// side by side without a defensive copy.
	ni := len(a.Inputs)
	var cex []bool
	if Exhaustive(ni, maxExhaustive) {
		AllPatterns(ni, func(in []uint64, valid uint64) bool {
			cex = firstDiff(sa.Run(in), sb.Run(in), in, valid)
			return cex == nil
		})
		return cex == nil, cex, nil
	}
	rng := rand.New(rand.NewSource(seed))
	in := make([]uint64, ni)
	for round := 0; round < nSamples && cex == nil; round++ {
		for i := range in {
			in[i] = rng.Uint64()
		}
		cex = firstDiff(sa.Run(in), sb.Run(in), in, ^uint64(0))
	}
	return cex == nil, cex, nil
}

// firstDiff returns the input pattern of the lowest valid lane on which
// the first differing output of oa and ob differs, or nil if none does.
func firstDiff(oa, ob, in []uint64, valid uint64) []bool {
	for i := range oa {
		if d := (oa[i] ^ ob[i]) & valid; d != 0 {
			bit := bits.TrailingZeros64(d)
			cex := make([]bool, len(in))
			for j := range cex {
				cex[j] = in[j]>>bit&1 != 0
			}
			return cex
		}
	}
	return nil
}

// OutputCorruptibility estimates, over nRounds 64-pattern random
// rounds, the fraction of (pattern, output) pairs on which the two
// netlists disagree. Logic-locking papers use this to quantify how
// wrong a circuit is under an incorrect key: one-point-function schemes
// score near zero, RIL-Blocks score high.
func OutputCorruptibility(a, b *Netlist, nRounds int, seed int64) (float64, error) {
	if len(a.Inputs) != len(b.Inputs) || len(a.Outputs) != len(b.Outputs) {
		return 0, fmt.Errorf("netlist: signature mismatch")
	}
	sa, err := NewSimulator(a)
	if err != nil {
		return 0, err
	}
	sb, err := NewSimulator(b)
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(seed))
	in := make([]uint64, len(a.Inputs))
	diff, total := 0, 0
	for r := 0; r < nRounds; r++ {
		for i := range in {
			in[i] = rng.Uint64()
		}
		oa := sa.Run(in)
		ob := sb.Run(in)
		for i := range oa {
			diff += bits.OnesCount64(oa[i] ^ ob[i])
			total += 64
		}
	}
	if total == 0 {
		return 0, nil
	}
	return float64(diff) / float64(total), nil
}
