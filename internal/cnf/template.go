package cnf

import (
	"repro/internal/netlist"
)

// ClauseSink is the incremental target a Template stamps clauses
// into. Both *Formula and the CDCL solver (and its portfolio) satisfy
// it; AddClause reports false when the sink has derived a top-level
// contradiction (always true for a bare Formula).
type ClauseSink interface {
	NewVar() Var
	AddClause(lits ...Lit) bool
}

// LitFalse and LitTrue are the constants StampFixed returns for a slot
// its fixed inputs decide. They belong to no variable and must never
// reach a ClauseSink; Not maps one to the other.
const (
	LitFalse Lit = -2
	LitTrue  Lit = -1
)

// constLit returns LitTrue or LitFalse.
func constLit(b bool) Lit {
	if b {
		return LitTrue
	}
	return LitFalse
}

// Template is a netlist compiled to CNF once, ready to be stamped
// into a solver many times. The SAT attack's DIP loop adds two fresh
// constrained circuit copies per iteration; without a template each
// copy re-runs topological ordering and gate-by-gate Tseitin encoding
// of the whole netlist, which PR-4-scale profiling shows is pure
// re-computation — the clauses are identical up to variable renaming.
// Compile captures the encoder's exact variable-allocation and clause
// order, so a Stamp produces the same variable numbering and clause
// stream the Encoder would, bit for bit. StampFixed additionally
// evaluates the copy under fixed input values and stamps only the
// logic they leave undecided.
type Template struct {
	f         *Formula // compiled image; variables are slot ids 0..NumVars-1
	inputs    []Var    // input position -> slot
	outputs   []Var    // output position -> slot
	gateSlots []Var    // gate id -> slot
	inputSlot []int    // slot -> input position, or -1 for internal slots
}

// CompileTemplate encodes the netlist once and returns the reusable
// template. The error cases are the Encoder's (combinational cycles,
// unsupported gate types).
func CompileTemplate(n *netlist.Netlist) (*Template, error) {
	enc := NewEncoder()
	gv, err := enc.Encode(n, nil)
	if err != nil {
		return nil, err
	}
	t := &Template{
		f:         enc.F,
		inputs:    gv.Inputs,
		outputs:   gv.Outputs,
		gateSlots: gv.Vars,
		inputSlot: make([]int, enc.F.NumVars),
	}
	for i := range t.inputSlot {
		t.inputSlot[i] = -1
	}
	for pos, slot := range gv.Inputs {
		t.inputSlot[slot] = pos
	}
	return t, nil
}

// NumVars returns the number of template slots (fresh variables one
// unshared stamp allocates).
func (t *Template) NumVars() int { return t.f.NumVars }

// NumClauses returns the clause count of one stamped copy.
func (t *Template) NumClauses() int { return t.f.NumClauses() }

// Stamp adds one copy of the compiled netlist to the sink. As with
// Encoder.Encode, shared maps an input position to an existing
// variable reused for that input; every other slot gets a fresh sink
// variable, allocated in compile order so the resulting variable
// numbering and clause stream match what the Encoder would have
// produced. ok is false when the sink reported a top-level
// contradiction mid-stamp (the returned GateVars is then incomplete).
func (t *Template) Stamp(dst ClauseSink, shared map[int]Var) (gv *GateVars, ok bool) {
	lits, ok := t.stamp(dst, shared, nil)
	if !ok {
		return nil, false
	}
	gv = &GateVars{
		Vars:    make([]Var, len(t.gateSlots)),
		Inputs:  make([]Var, len(t.inputs)),
		Outputs: make([]Var, len(t.outputs)),
	}
	for id, slot := range t.gateSlots {
		gv.Vars[id] = lits[slot].Var()
	}
	for i, slot := range t.inputs {
		gv.Inputs[i] = lits[slot].Var()
	}
	for i, slot := range t.outputs {
		gv.Outputs[i] = lits[slot].Var()
	}
	return gv, true
}

// StampFixed adds one copy of the compiled netlist with the inputs at
// fixed's positions set to fixed's values (a fixed position ignores
// shared). Unit propagation over the compiled clauses finds every slot
// those values decide; only the other slots get a sink variable,
// satisfied clauses are dropped and false literals are removed from
// the rest. It returns each output's literal, LitFalse or LitTrue
// where the fixed inputs decide the output. ok is false when the sink
// reported a top-level contradiction.
func (t *Template) StampFixed(dst ClauseSink, shared map[int]Var, fixed map[int]bool) (outputs []Lit, ok bool) {
	lits, ok := t.stamp(dst, shared, fixed)
	if !ok {
		return nil, false
	}
	outputs = make([]Lit, len(t.outputs))
	for i, slot := range t.outputs {
		outputs[i] = lits[slot]
	}
	return outputs, true
}

// stamp is Stamp and StampFixed: it returns each slot's sink literal,
// or its constant. With nothing fixed nothing is propagated, so every
// slot gets a variable and every clause is added unchanged.
func (t *Template) stamp(dst ClauseSink, shared map[int]Var, fixed map[int]bool) ([]Lit, bool) {
	// lits holds LitFalse/LitTrue for a decided slot and 0 for an
	// undecided one until variables are allocated below.
	lits := make([]Lit, t.f.NumVars)
	for p, b := range fixed {
		lits[t.inputs[p]] = constLit(b)
	}
	if len(fixed) > 0 {
		t.propagate(lits)
	}
	for slot := range lits {
		if lits[slot] < 0 {
			continue
		}
		if p := t.inputSlot[slot]; p >= 0 {
			if v, isShared := shared[p]; isShared {
				lits[slot] = MkLit(v, false)
				continue
			}
		}
		lits[slot] = MkLit(dst.NewVar(), false)
	}
	buf := make([]Lit, 0, 8)
clauses:
	for _, c := range t.f.Clauses {
		buf = buf[:0]
		for _, l := range c {
			m := lits[l.Var()]
			if l.Neg() {
				m = m.Not()
			}
			if m == LitTrue {
				continue clauses // satisfied: dropped
			}
			if m != LitFalse {
				buf = append(buf, m)
			}
		}
		if !dst.AddClause(buf...) {
			return nil, false
		}
	}
	return lits, true
}

// propagate decides, in lits, every slot unit propagation over the
// compiled clauses derives from the slots already decided there. Every
// clause contains the slot its gate defines, and once that slot is
// decided all of the gate's clauses are satisfied, so a clause can only
// become unit on its own gate's slot, after its fanins are decided.
// The stream is in topological order, so one pass reaches the
// fixpoint.
func (t *Template) propagate(lits []Lit) {
clauses:
	for _, c := range t.f.Clauses {
		var unit Lit
		free := 0
		for _, l := range c {
			m := lits[l.Var()]
			if m >= 0 { // undecided
				unit, free = l, free+1
				continue
			}
			if l.Neg() {
				m = m.Not()
			}
			if m == LitTrue {
				continue clauses // satisfied
			}
		}
		if free == 1 {
			lits[unit.Var()] = constLit(!unit.Neg())
		}
	}
}
