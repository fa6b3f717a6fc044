package cnf

import (
	"fmt"

	"repro/internal/netlist"
)

// Encoder translates netlists into CNF via the Tseitin transformation,
// tracking the variable assigned to each gate so that callers can
// constrain inputs, read model values, and build miters spanning
// multiple circuit copies over one formula.
type Encoder struct {
	F *Formula
}

// NewEncoder returns an encoder over a fresh formula.
func NewEncoder() *Encoder { return &Encoder{F: NewFormula()} }

// GateVars maps each gate ID of an encoded netlist copy to its CNF
// variable.
type GateVars struct {
	Vars    []Var
	Inputs  []Var // variable of each primary input, in input order
	Outputs []Var // variable of each primary output, in output order
}

// Encode adds one copy of the netlist to the formula and returns the
// gate-to-variable mapping. Multiple calls encode independent copies;
// pass shared to reuse variables for chosen inputs (e.g. share primary
// inputs between two key-differentiated copies of a locked circuit):
// shared maps input position -> existing variable.
func (e *Encoder) Encode(n *netlist.Netlist, shared map[int]Var) (*GateVars, error) {
	order, err := n.TopoOrder()
	if err != nil {
		return nil, err
	}
	gv := &GateVars{Vars: make([]Var, n.NumGates())}
	inputPos := make(map[int]int, len(n.Inputs)) // gate id -> input index
	for i, id := range n.Inputs {
		inputPos[id] = i
	}
	for _, id := range order {
		g := &n.Gates[id]
		if g.Type == netlist.Input {
			if pos, ok := inputPos[id]; ok {
				if v, ok := shared[pos]; ok {
					gv.Vars[id] = v
					continue
				}
			}
			gv.Vars[id] = e.F.NewVar()
			continue
		}
		v, err := e.encodeGate(g, gv.Vars)
		if err != nil {
			return nil, fmt.Errorf("cnf: netlist %q gate %q: %w", n.Name, g.Name, err)
		}
		gv.Vars[id] = v
	}
	gv.ports(n)
	return gv, nil
}

// ports fills in the input and output variables from Vars.
func (gv *GateVars) ports(n *netlist.Netlist) {
	gv.Inputs = make([]Var, len(n.Inputs))
	for i, id := range n.Inputs {
		gv.Inputs[i] = gv.Vars[id]
	}
	gv.Outputs = make([]Var, len(n.Outputs))
	for i, id := range n.Outputs {
		gv.Outputs[i] = gv.Vars[id]
	}
}

func (e *Encoder) encodeGate(g *netlist.Gate, vars []Var) (Var, error) {
	in := make([]Lit, len(g.Fanin))
	for i, f := range g.Fanin {
		in[i] = MkLit(vars[f], false)
	}
	switch g.Type {
	case netlist.Const0:
		v := e.F.NewVar()
		e.F.AddClause(MkLit(v, true))
		return v, nil
	case netlist.Const1:
		v := e.F.NewVar()
		e.F.AddClause(MkLit(v, false))
		return v, nil
	case netlist.Buf:
		// Alias: introduce an equal variable (keeps mapping simple).
		v := e.F.NewVar()
		e.EncodeEqual(MkLit(v, false), in[0])
		return v, nil
	case netlist.Not:
		v := e.F.NewVar()
		e.EncodeEqual(MkLit(v, false), in[0].Not())
		return v, nil
	case netlist.And:
		return e.encodeAnd(in), nil
	case netlist.Nand:
		return e.negateOf(e.encodeAnd(in)), nil
	case netlist.Or:
		return e.encodeOr(in), nil
	case netlist.Nor:
		return e.negateOf(e.encodeOr(in)), nil
	case netlist.Xor:
		return e.encodeXorChain(in, false), nil
	case netlist.Xnor:
		return e.encodeXorChain(in, true), nil
	case netlist.Mux:
		return e.EncodeMux(in[0], in[1], in[2]), nil
	}
	return 0, fmt.Errorf("unsupported gate type %s", g.Type)
}

func (e *Encoder) negateOf(v Var) Var {
	nv := e.F.NewVar()
	e.EncodeEqual(MkLit(nv, false), MkLit(v, true))
	return nv
}

// EncodeEqual adds clauses asserting a ↔ b.
func (e *Encoder) EncodeEqual(a, b Lit) {
	e.F.AddClause(a.Not(), b)
	e.F.AddClause(a, b.Not())
}

func (e *Encoder) encodeAnd(in []Lit) Var {
	out := e.F.NewVar()
	o := MkLit(out, false)
	long := make([]Lit, 0, len(in)+1)
	for _, l := range in {
		e.F.AddClause(o.Not(), l) // out -> in_i
		long = append(long, l.Not())
	}
	long = append(long, o) // all in -> out
	e.F.AddClause(long...)
	return out
}

func (e *Encoder) encodeOr(in []Lit) Var {
	out := e.F.NewVar()
	o := MkLit(out, false)
	long := make([]Lit, 0, len(in)+1)
	for _, l := range in {
		e.F.AddClause(o, l.Not()) // in_i -> out
		long = append(long, l)
	}
	long = append(long, o.Not()) // out -> some in
	e.F.AddClause(long...)
	return out
}

// EncodeXor2 returns a fresh variable equal to a ⊕ b.
func (e *Encoder) EncodeXor2(a, b Lit) Var {
	out := e.F.NewVar()
	o := MkLit(out, false)
	e.F.AddClause(o.Not(), a, b)
	e.F.AddClause(o.Not(), a.Not(), b.Not())
	e.F.AddClause(o, a.Not(), b)
	e.F.AddClause(o, a, b.Not())
	return out
}

func (e *Encoder) encodeXorChain(in []Lit, invert bool) Var {
	acc := in[0]
	for _, l := range in[1:] {
		acc = MkLit(e.EncodeXor2(acc, l), false)
	}
	if invert {
		acc = acc.Not()
	}
	// Materialize as a plain variable so callers can reference it.
	if !acc.Neg() && len(in) > 1 {
		return acc.Var()
	}
	v := e.F.NewVar()
	e.EncodeEqual(MkLit(v, false), acc)
	return v
}

// EncodeMux returns a fresh variable out = s ? b : a.
func (e *Encoder) EncodeMux(s, a, b Lit) Var {
	out := e.F.NewVar()
	o := MkLit(out, false)
	e.F.AddClause(s, a.Not(), o)       // ¬s ∧ a -> out
	e.F.AddClause(s, a, o.Not())       // ¬s ∧ ¬a -> ¬out
	e.F.AddClause(s.Not(), b.Not(), o) // s ∧ b -> out
	e.F.AddClause(s.Not(), b, o.Not()) // s ∧ ¬b -> ¬out
	// Redundant but propagation-strengthening clauses:
	e.F.AddClause(a.Not(), b.Not(), o)
	e.F.AddClause(a, b, o.Not())
	return out
}

// AtMostOne adds pairwise at-most-one constraints over the literals.
// Used by the one-layer one-hot routing re-encoding (paper §IV-B).
func (e *Encoder) AtMostOne(lits []Lit) {
	for i := 0; i < len(lits); i++ {
		for j := i + 1; j < len(lits); j++ {
			e.F.AddClause(lits[i].Not(), lits[j].Not())
		}
	}
}

// ExactlyOne adds a one-hot constraint over the literals.
func (e *Encoder) ExactlyOne(lits []Lit) {
	e.F.AddClause(lits...)
	e.AtMostOne(lits)
}
