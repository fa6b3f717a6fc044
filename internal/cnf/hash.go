package cnf

import (
	"fmt"
	"slices"

	"repro/internal/netlist"
)

// Hasher encodes netlists into one formula with structural hashing, in
// the style of Kuehlmann & Krohm's equivalence checker (DAC 1997).
// Every distinct node gets one literal, and an inverted edge is that
// literal negated:
//
//   - BUF and NOT cost nothing; NAND, NOR and XNOR negate AND, OR and
//     XOR, and OR is an AND by De Morgan. Nodes are two-input ANDs,
//     two-input XORs and MUXes; a wider AND or XOR is a chain over its
//     sorted operands.
//   - Operands take a canonical order and polarity: an AND's two
//     operands are sorted, an XOR's are positive and sorted with the
//     complements pushed to its output, and a MUX's select and first
//     data input are positive.
//   - Constants fold: x∧0, x∧1, x∧x, x∧¬x, x⊕x, a MUX with a constant
//     select or data input, MUX(s,a,a)=a and MUX(s,a,¬a)=s⊕a. A
//     constant is LitFalse or LitTrue and never reaches the formula.
//
// A node met again, in the same netlist or another encoded into the
// same Hasher, returns its first literal and adds nothing. Each new
// node gets the Tseitin clauses Encoder writes for its gate type. The
// node table is only ever looked up, never iterated, so the clause
// stream depends only on the netlists and their topological order.
type Hasher struct {
	F     *Formula
	enc   Encoder // writes each new node's clauses into F
	nodes map[node]Var
	buf   []Lit
}

// node is the key of one hashed node: its kind and canonical operands
// (c only for a MUX).
type node struct {
	kind    nodeKind
	a, b, c Lit
}

type nodeKind uint8

const (
	andNode nodeKind = iota
	xorNode
	muxNode
)

// NewHasher returns a hasher over a fresh formula.
func NewHasher() *Hasher {
	f := NewFormula()
	return &Hasher{F: f, enc: Encoder{F: f}, nodes: make(map[node]Var)}
}

// Inputs allocates n fresh variables and returns their positive
// literals: the input vector of an encoding, or the literals that
// several encodings share.
func (h *Hasher) Inputs(n int) []Lit {
	in := make([]Lit, n)
	for i := range in {
		in[i] = MkLit(h.F.NewVar(), false)
	}
	return in
}

// Encode adds n over inputs, one literal per primary input in input
// order, and returns the literal of each primary output; an output
// that folds to a constant is LitFalse or LitTrue. An input gate that
// is not a primary input gets a fresh variable, as with Encoder.
func (h *Hasher) Encode(n *netlist.Netlist, inputs []Lit) ([]Lit, error) {
	if len(inputs) != len(n.Inputs) {
		return nil, fmt.Errorf("cnf: netlist %q has %d inputs, got %d literals", n.Name, len(n.Inputs), len(inputs))
	}
	order, err := n.TopoOrder()
	if err != nil {
		return nil, err
	}
	lits := make([]Lit, n.NumGates())
	primary := make([]bool, n.NumGates())
	for i, id := range n.Inputs {
		lits[id], primary[id] = inputs[i], true
	}
	for _, id := range order {
		g := &n.Gates[id]
		in := h.buf[:0]
		for _, f := range g.Fanin {
			in = append(in, lits[f])
		}
		h.buf = in
		var o Lit
		switch g.Type {
		case netlist.Input:
			if primary[id] {
				continue
			}
			o = MkLit(h.F.NewVar(), false)
		case netlist.Const0:
			o = LitFalse
		case netlist.Const1:
			o = LitTrue
		case netlist.Buf:
			o = in[0]
		case netlist.Not:
			o = in[0].Not()
		case netlist.And:
			o = h.andN(in)
		case netlist.Nand:
			o = h.andN(in).Not()
		case netlist.Or:
			o = h.orN(in)
		case netlist.Nor:
			o = h.orN(in).Not()
		case netlist.Xor:
			o = h.xorN(in)
		case netlist.Xnor:
			o = h.xorN(in).Not()
		case netlist.Mux:
			o = h.mux(in[0], in[1], in[2])
		default:
			return nil, fmt.Errorf("cnf: netlist %q gate %q: unsupported gate type %s", n.Name, g.Name, g.Type)
		}
		lits[id] = o
	}
	outs := make([]Lit, len(n.Outputs))
	for i, id := range n.Outputs {
		outs[i] = lits[id]
	}
	return outs, nil
}

// and returns the literal of a ∧ b.
func (h *Hasher) and(a, b Lit) Lit {
	if a > b {
		a, b = b, a
	}
	// The constants sort below every variable's literals.
	switch {
	case a == LitFalse || a == b.Not():
		return LitFalse
	case a == LitTrue || a == b:
		return b
	}
	k := node{kind: andNode, a: a, b: b}
	if v, ok := h.nodes[k]; ok {
		return MkLit(v, false)
	}
	v := h.enc.encodeAnd([]Lit{a, b})
	h.nodes[k] = v
	return MkLit(v, false)
}

// Xor returns the literal of a ⊕ b.
func (h *Hasher) Xor(a, b Lit) Lit {
	// ¬a ⊕ b = ¬(a ⊕ b). LitTrue is LitFalse negated, so the constants
	// strip the same way.
	neg := a.Neg() != b.Neg()
	a, b = a&^1, b&^1
	if a > b {
		a, b = b, a
	}
	var o Lit
	switch {
	case a == b:
		o = LitFalse
	case a == LitFalse:
		o = b
	default:
		k := node{kind: xorNode, a: a, b: b}
		v, ok := h.nodes[k]
		if !ok {
			v = h.enc.EncodeXor2(a, b)
			h.nodes[k] = v
		}
		o = MkLit(v, false)
	}
	if neg {
		o = o.Not()
	}
	return o
}

// mux returns the literal of s ? b : a, the netlist's MUX(s, a, b).
func (h *Hasher) mux(s, a, b Lit) Lit {
	switch {
	case s == LitFalse:
		return a
	case s == LitTrue:
		return b
	case a == b:
		return a
	case a == b.Not():
		return h.Xor(s, a)
	case a == LitFalse:
		return h.and(s, b)
	case a == LitTrue: // ¬s ∨ b
		return h.and(s, b.Not()).Not()
	case b == LitFalse:
		return h.and(s.Not(), a)
	case b == LitTrue: // s ∨ a
		return h.and(s.Not(), a.Not()).Not()
	}
	// MUX(¬s, a, b) = MUX(s, b, a) and MUX(s, ¬a, ¬b) = ¬MUX(s, a, b).
	if s.Neg() {
		s, a, b = s.Not(), b, a
	}
	neg := a.Neg()
	if neg {
		a, b = a.Not(), b.Not()
	}
	k := node{kind: muxNode, a: s, b: a, c: b}
	v, ok := h.nodes[k]
	if !ok {
		v = h.enc.EncodeMux(s, a, b)
		h.nodes[k] = v
	}
	o := MkLit(v, false)
	if neg {
		o = o.Not()
	}
	return o
}

// andN chains and over the sorted operands, so one operand set always
// builds one chain. Sorting puts a repeated literal, or a literal and
// its complement, side by side, where they fold before the chain hides
// them. It reorders in.
func (h *Hasher) andN(in []Lit) Lit {
	slices.Sort(in)
	o := LitTrue
	for i, l := range in {
		if i > 0 && l == in[i-1] {
			continue
		}
		if i > 0 && l == in[i-1].Not() {
			return LitFalse
		}
		o = h.and(o, l)
	}
	return o
}

// orN is the De Morgan dual of andN. It negates in.
func (h *Hasher) orN(in []Lit) Lit {
	for i := range in {
		in[i] = in[i].Not()
	}
	return h.andN(in).Not()
}

// xorN chains Xor over the operands made positive and sorted, with
// their complements pushed to the output, and cancels repeated pairs.
// It rewrites in.
func (h *Hasher) xorN(in []Lit) Lit {
	neg := false
	for i, l := range in {
		neg = neg != l.Neg()
		in[i] = l &^ 1
	}
	slices.Sort(in)
	o := LitFalse
	for i := 0; i < len(in); i++ {
		if i+1 < len(in) && in[i] == in[i+1] {
			i++ // x ⊕ x = 0
			continue
		}
		o = h.Xor(o, in[i])
	}
	if neg {
		o = o.Not()
	}
	return o
}
