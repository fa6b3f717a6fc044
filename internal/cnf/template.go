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
// logic they leave undecided, with buffers and inverters of other
// literals collapsed onto those literals.
type Template struct {
	f         *Formula // compiled image; variables are slot ids 0..NumVars-1
	inputs    []Var    // input position -> slot
	outputs   []Var    // output position -> slot
	gateSlots []Var    // gate id -> slot
	inputSlot []int    // slot -> input position, or -1 for internal slots
	// first[s] is the index of slot s's first clause: the clauses that
	// define slot s are f.Clauses[first[s]:first[s+1]]. The Encoder
	// allocates a gate's variables after its fanins' and adds the
	// clauses defining each variable right after allocating it, so a
	// clause's largest slot is the slot it defines and each slot's
	// clauses are contiguous. Input slots define no clauses.
	first []int
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
		first:     make([]int, enc.F.NumVars+1),
	}
	for i := range t.inputSlot {
		t.inputSlot[i] = -1
	}
	for pos, slot := range gv.Inputs {
		t.inputSlot[slot] = pos
	}
	for _, c := range enc.F.Clauses {
		var top Var
		for _, l := range c {
			top = max(top, l.Var())
		}
		t.first[top+1]++
	}
	for s := range enc.F.NumVars {
		t.first[s+1] += t.first[s]
	}
	return t, nil
}

// clauses returns the compiled clauses that define slot s.
func (t *Template) clauses(s int) [][]Lit { return t.f.Clauses[t.first[s]:t.first[s+1]] }

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
// shared). One pass over the compiled clauses finds every slot those
// values make a constant, and every slot they make a buffer or
// inverter of another literal; only the remaining slots get a sink
// variable. Clauses that the substitution satisfies or makes
// tautological are dropped, and false and repeated literals are
// removed from the rest. It returns each output's literal, LitFalse
// or LitTrue where the fixed inputs decide the output. ok is false
// when the sink reported a top-level contradiction.
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
// or its constant. With nothing fixed nothing is substituted, so every
// slot gets a variable and every clause is added unchanged.
func (t *Template) stamp(dst ClauseSink, shared map[int]Var, fixed map[int]bool) ([]Lit, bool) {
	// lits starts in slot space: a slot holds LitFalse/LitTrue, its
	// own positive literal (kept) or another slot's literal (an alias
	// of that slot). The loop below moves it to sink space in slot
	// order, so an alias's target is already moved when it is reached.
	lits := make([]Lit, t.f.NumVars)
	for s := range lits {
		lits[s] = MkLit(Var(s), false)
	}
	for p, b := range fixed {
		lits[t.inputs[p]] = constLit(b)
	}
	simplify := len(fixed) > 0
	if simplify {
		t.substitute(lits)
	}
	buf := make([]Lit, 0, 8)
	for s, lit := range lits {
		// A constant or an alias gets no variable, and substituting it
		// makes each of its slot's clauses satisfied or tautological.
		switch {
		case lit < 0:
			continue
		case lit.Var() != Var(s):
			lits[s] = subst(lits, lit)
			continue
		}
		if p := t.inputSlot[s]; p >= 0 {
			if v, isShared := shared[p]; isShared {
				lits[s] = MkLit(v, false)
				continue // an input slot has no clauses
			}
		}
		lits[s] = MkLit(dst.NewVar(), false)
		for _, c := range t.clauses(s) {
			r, live := reduce(buf, lits, c, simplify)
			if buf = r; live && !dst.AddClause(r...) {
				return nil, false
			}
		}
	}
	return lits, true
}

// substitute decides, in lits, every slot that the constants already
// there and the substitutions of earlier slots make a constant or an
// alias. It takes the slots in order, one slot's clauses at a time,
// each clause reduced as the stamp will emit it, every earlier slot
// replaced by its literal or constant:
//   - a unit clause (y) or (¬y) makes slot y that constant;
//   - binary clauses (y∨l) and (y∨¬l) make y true, (¬y∨l) and (¬y∨¬l)
//     false;
//   - binary clauses (¬y∨l) and (y∨¬l) make y an alias of l, (y∨l)
//     and (¬y∨¬l) an alias of ¬l;
//   - anything else keeps y.
//
// A slot's clauses are the Tseitin encoding of y = g(fanins): for
// every value of the fanins they hold for exactly one value of y. So
// once they imply y = l, g equals l on every fanin value, and each
// clause with y replaced by l holds under every assignment: it is
// satisfied by a constant or tautological, and the stamp drops it.
// Clauses only mention their slot and earlier ones, so a later
// decision cannot change an earlier slot's clauses, and one pass in
// slot order reaches the fixpoint.
func (t *Template) substitute(lits []Lit) {
	buf := make([]Lit, 0, 8)
	var bins [][2]Lit // the slot's binary clauses: its own literal, the other
	for s := range lits {
		y := MkLit(Var(s), false)
		if lits[s] != y {
			continue // a fixed input
		}
		bins = bins[:0]
	group:
		for _, c := range t.clauses(s) {
			r, live := reduce(buf, lits, c, true)
			if buf = r; !live {
				continue
			}
			// y is undecided, so a live clause keeps it: it is the
			// clause's largest variable.
			switch len(r) {
			case 1:
				lits[s] = constLit(r[0] == y)
				break group
			case 2:
				own, l := r[0], r[1]
				if own.Var() != Var(s) {
					own, l = l, own
				}
				for _, b := range bins {
					switch {
					case b == [2]Lit{own, l.Not()}: // own holds either way
						lits[s] = constLit(own == y)
					case b == [2]Lit{own.Not(), l.Not()}: // own = ¬l
						lits[s] = l
						if own == y {
							lits[s] = l.Not()
						}
					default:
						continue
					}
					break group
				}
				bins = append(bins, [2]Lit{own, l})
			}
		}
	}
}

// reduce writes clause c into buf with every literal substituted from
// lits and, with simplify, cleaned. live is false when the
// substitution satisfies c or makes it tautological.
func reduce(buf, lits, c []Lit, simplify bool) (out []Lit, live bool) {
	buf = buf[:0]
	for _, l := range c {
		buf = append(buf, subst(lits, l))
	}
	if !simplify {
		return buf, true
	}
	return clean(buf)
}

// subst returns literal l with its variable replaced by lits[l.Var()].
func subst(lits []Lit, l Lit) Lit {
	m := lits[l.Var()]
	if l.Neg() {
		return m.Not()
	}
	return m
}

// clean drops LitFalse and repeated literals from c in place. live is
// false when c holds LitTrue or a literal and its complement.
func clean(c []Lit) (out []Lit, live bool) {
	out = c[:0]
next:
	for _, m := range c {
		switch m {
		case LitTrue:
			return out, false
		case LitFalse:
			continue
		}
		for _, k := range out {
			if k == m {
				continue next
			}
			if k == m.Not() {
				return out, false
			}
		}
		out = append(out, m)
	}
	return out, true
}
