// Package cnf provides conjunctive-normal-form formulas, DIMACS I/O,
// and Tseitin encoding of gate-level netlists. It is the bridge between
// the netlist world and the CDCL solver in internal/sat.
package cnf

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Var is a 0-based propositional variable index.
type Var int32

// Lit is a literal: variable v with positive polarity encodes as 2v,
// negative polarity as 2v+1 (MiniSat convention).
type Lit int32

// MkLit builds a literal from a variable and a sign (neg=true for ¬v).
func MkLit(v Var, neg bool) Lit {
	l := Lit(v) << 1
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable.
func (l Lit) Var() Var { return Var(l >> 1) }

// Neg reports whether the literal is negated.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complementary literal.
func (l Lit) Not() Lit { return l ^ 1 }

// Dimacs returns the literal in DIMACS convention (±(v+1)).
func (l Lit) Dimacs() int {
	d := int(l.Var()) + 1
	if l.Neg() {
		return -d
	}
	return d
}

// FromDimacs converts a DIMACS literal (nonzero ±v) to a Lit.
func FromDimacs(d int) Lit {
	if d > 0 {
		return MkLit(Var(d-1), false)
	}
	return MkLit(Var(-d-1), true)
}

func (l Lit) String() string { return strconv.Itoa(l.Dimacs()) }

// Formula is a CNF formula: a clause list over NumVars variables.
type Formula struct {
	NumVars int
	Clauses [][]Lit
}

// NewFormula returns an empty formula.
func NewFormula() *Formula { return &Formula{} }

// NewVar allocates a fresh variable.
func (f *Formula) NewVar() Var {
	v := Var(f.NumVars)
	f.NumVars++
	return v
}

// AddClause appends a clause. Literals referencing unseen variables
// grow the variable count. The return value is always true — a bare
// formula cannot detect unsatisfiability — and exists so *Formula
// satisfies ClauseSink alongside the CDCL solver.
func (f *Formula) AddClause(lits ...Lit) bool {
	for _, l := range lits {
		if int(l.Var()) >= f.NumVars {
			f.NumVars = int(l.Var()) + 1
		}
	}
	f.Clauses = append(f.Clauses, append([]Lit(nil), lits...))
	return true
}

// NumClauses returns the clause count.
func (f *Formula) NumClauses() int { return len(f.Clauses) }

// Eval evaluates the formula under a complete assignment.
func (f *Formula) Eval(assign []bool) bool {
	for _, c := range f.Clauses {
		sat := false
		for _, l := range c {
			v := assign[l.Var()]
			if v != l.Neg() {
				sat = true
				break
			}
		}
		if !sat {
			return false
		}
	}
	return true
}

// WriteDimacs emits the formula in DIMACS cnf format.
func (f *Formula) WriteDimacs(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "p cnf %d %d\n", f.NumVars, len(f.Clauses))
	for _, c := range f.Clauses {
		for _, l := range c {
			fmt.Fprintf(bw, "%d ", l.Dimacs())
		}
		fmt.Fprintln(bw, 0)
	}
	return bw.Flush()
}

// ParseDimacs reads a DIMACS cnf file.
func ParseDimacs(r io.Reader) (*Formula, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	f := NewFormula()
	declared := -1
	var cur []Lit
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "c") {
			continue
		}
		if strings.HasPrefix(line, "p") {
			fields := strings.Fields(line)
			if len(fields) != 4 || fields[1] != "cnf" {
				return nil, fmt.Errorf("cnf: malformed problem line %q", line)
			}
			nv, err1 := strconv.Atoi(fields[2])
			nc, err2 := strconv.Atoi(fields[3])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("cnf: malformed problem line %q", line)
			}
			f.NumVars = nv
			declared = nc
			continue
		}
		for _, tok := range strings.Fields(line) {
			d, err := strconv.Atoi(tok)
			if err != nil {
				return nil, fmt.Errorf("cnf: bad literal %q", tok)
			}
			if d == 0 {
				f.Clauses = append(f.Clauses, cur)
				cur = nil
				continue
			}
			l := FromDimacs(d)
			if int(l.Var()) >= f.NumVars {
				f.NumVars = int(l.Var()) + 1
			}
			cur = append(cur, l)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(cur) > 0 {
		f.Clauses = append(f.Clauses, cur)
	}
	if declared >= 0 && declared != len(f.Clauses) {
		return nil, fmt.Errorf("cnf: header declared %d clauses, file has %d", declared, len(f.Clauses))
	}
	return f, nil
}
