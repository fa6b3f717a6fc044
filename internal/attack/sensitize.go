package attack

import (
	"fmt"
	"time"

	"repro/internal/cnf"
	"repro/internal/netlist"
	"repro/internal/sat"
)

// Key-sensitization attack (Yasin et al., the paper's [1]): for each
// key bit the attacker searches for an input pattern that propagates
// that bit to a primary output *regardless of the other key bits* —
// the output value on the oracle then reveals the bit directly, no
// key-space search needed. Random XOR locking frequently admits such
// patterns; RIL-Blocks interleave every key bit with many others
// through the MUX lattice, so golden patterns rarely exist.

// SensitizeResult reports a sensitization run.
type SensitizeResult struct {
	Resolved   int    // key bits recovered via golden patterns
	Unresolved int    // key bits with no golden pattern found
	Key        []bool // recovered values (meaningful where Mask is true)
	Mask       []bool // which bits were resolved
	Queries    int    // oracle queries spent
	Elapsed    time.Duration
}

func (r *SensitizeResult) String() string {
	return fmt.Sprintf("sensitization: %d/%d key bits resolved with %d oracle queries in %v",
		r.Resolved, r.Resolved+r.Unresolved, r.Queries, r.Elapsed.Round(time.Millisecond))
}

// Sensitize runs the key-sensitization attack. For each key bit i it
// solves the 2QBF-style query  ∃X ∀K_rest: C(X, ki=0) ≠ C(X, ki=1)
// with a CEGAR loop: a candidate solver proposes patterns, and two
// persistent checkers — the bit's universality check and the call-wide
// value-constancy check, each encoded once — refute or confirm every
// candidate under assumptions. A pattern that survives is golden: one
// oracle query fixes bit i. perBitBudget bounds the CEGAR iterations
// per bit.
//
// Golden patterns are swept through the oracle's BatchOracle fast
// path, 64 patterns per word-level simulation, after the per-bit CEGAR
// search; each pattern still costs exactly one counted query and the
// oracle sees them in bit order, so Queries and the recovered key are
// identical to the per-bit scalar probing this replaces.
func Sensitize(locked *netlist.Netlist, keyPos []int, oracle Oracle, perBitBudget int, timeout time.Duration) (*SensitizeResult, error) {
	start := time.Now()
	funcPos, err := splitInputs(locked, keyPos)
	if err != nil {
		return nil, err
	}
	if oracle.NumInputs() != len(funcPos) {
		return nil, fmt.Errorf("attack: sensitize: oracle arity mismatch")
	}
	decodeSim, err := netlist.NewSimulator(locked)
	if err != nil {
		return nil, err
	}
	res := &SensitizeResult{
		Key:  make([]bool, len(keyPos)),
		Mask: make([]bool, len(keyPos)),
	}
	deadline := time.Time{}
	if timeout > 0 {
		deadline = start.Add(timeout)
	}

	// One probe per golden pattern found; the oracle sweep runs
	// batched once the (SAT-bound) searches are done.
	type probe struct {
		bit, outIdx int
		pattern     []bool
	}
	var pending []probe
	vc, err := newConstancyCheck(locked, keyPos, funcPos, deadline)
	if err != nil {
		return nil, err
	}
	for bit := range keyPos {
		if !deadline.IsZero() && time.Now().After(deadline) {
			res.Unresolved = len(keyPos) - bit + res.Unresolved
			break
		}
		pattern, outIdx, ok, err := goldenPattern(locked, keyPos, funcPos, bit, perBitBudget, deadline, vc)
		if err != nil {
			return nil, err
		}
		if !ok {
			res.Unresolved++
			continue
		}
		pending = append(pending, probe{bit: bit, outIdx: outIdx, pattern: pattern})
		res.Queries++
		res.Resolved++
	}

	// Sweep the golden patterns through the oracle: full groups of 64
	// via QueryWords, the remainder as scalar queries, in bit order
	// either way. The observed output reveals each bit: since the
	// pattern is golden, output outIdx is k ⊕ c for a fixed polarity,
	// so comparing against the locked circuit at ki=0 (rest arbitrary,
	// all zeros here) decodes the oracle's value.
	batch := AsBatch(oracle)
	words := make([]uint64, len(funcPos))
	inBuf := make([]bool, len(funcPos))
	outBuf := make([]uint64, oracle.NumOutputs())
	zeroKey := make([]bool, len(keyPos))
	for startIdx := 0; startIdx < len(pending); startIdx += 64 {
		n := len(pending) - startIdx
		if n > 64 {
			n = 64
		}
		for i := range words {
			words[i] = 0
		}
		for lane := 0; lane < n; lane++ {
			for i, v := range pending[startIdx+lane].pattern {
				if v {
					words[i] |= 1 << uint(lane)
				}
			}
		}
		var out []uint64
		if n == 64 {
			out = batch.QueryWords(words)
		} else {
			out = queryLanes(oracle, words, n, inBuf, outBuf)
		}
		for lane := 0; lane < n; lane++ {
			p := pending[startIdx+lane]
			observed := out[p.outIdx]&(1<<uint(lane)) != 0
			v0 := evalLockedAt(decodeSim, keyPos, funcPos, zeroKey, p.pattern, p.outIdx)
			res.Key[p.bit] = observed != v0 // if oracle differs, ki = 1
			res.Mask[p.bit] = true
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// goldenPattern searches for an input X and output index o such that
// flipping key bit `bit` flips output o for EVERY assignment of the
// remaining key bits. A candidate solver proposes (X, o) pairs on which
// the bit flips o for some K_rest; two persistent checkers, each
// encoded once and queried under assumptions, refute or confirm them:
// the bit's universality check, loaded lazily from the candidate's own
// encoding, and the call-wide value-constancy check vc.
func goldenPattern(locked *netlist.Netlist, keyPos, funcPos []int, bit, budget int, deadline time.Time, vc *constancyCheck) ([]bool, int, bool, error) {
	f, c1, diffs, err := encodeBitMiter(locked, keyPos, bit)
	if err != nil {
		return nil, 0, false, err
	}
	// Candidate solver: the two copies plus "some output differs".
	cand := loadSolver(f, deadline)
	if !cand.AddClause(diffs...) {
		return nil, 0, false, nil
	}
	// Universality check: the same two copies without the disjunction,
	// queried as "the outputs agree at o under X".
	var agree *sat.Solver

	assumps := make([]cnf.Lit, len(funcPos), len(funcPos)+1)
	for iter := 0; iter < budget; iter++ {
		if cand.Solve() != sat.Sat {
			return nil, 0, false, nil
		}
		pattern := make([]bool, len(funcPos))
		for i, p := range funcPos {
			pattern[i] = cand.ModelValue(cnf.MkLit(c1.Inputs[p], false))
			assumps[i] = cnf.MkLit(c1.Inputs[p], !pattern[i])
		}
		outIdx := -1
		for i, d := range diffs {
			if cand.ModelValue(d) {
				outIdx = i
				break
			}
		}
		if outIdx < 0 {
			return nil, 0, false, nil
		}
		// Verify universality in two parts. First: no assignment of the
		// remaining key bits makes the outputs agree (the bit always
		// propagates). Second: the ki=0 output value is the SAME for
		// every K_rest — without value-constancy the oracle observation
		// cannot be decoded (the bit would leak XOR some other bits).
		if agree == nil {
			agree = loadSolver(f, deadline)
		}
		if unsatUnder(agree, append(assumps, diffs[outIdx].Not())...) && vc.constant(bit, pattern, outIdx) {
			return pattern, outIdx, true, nil // golden
		}
		// Block this (pattern, outIdx) pair: require a different input
		// pattern or a different differing output next time. Simplest
		// complete refinement: forbid the exact input pattern when only
		// this output differs — conservatively forbid the pattern.
		blocking := make([]cnf.Lit, len(funcPos))
		for i, a := range assumps {
			blocking[i] = a.Not()
		}
		cand.AddClause(blocking...)
	}
	return nil, 0, false, nil
}

// constancyCheck decides whether C(X, ki=0, K_rest) at an output takes
// the same value for every assignment of the remaining key bits. It
// holds two copies of the locked netlist sharing X only, with one XOR
// per output, encoded once per Sensitize call; each query pins X, ki=0
// in both copies and "output o differs" as assumptions.
type constancyCheck struct {
	s               *sat.Solver
	c1, c2          *cnf.GateVars
	diffs           []cnf.Lit
	keyPos, funcPos []int
}

func newConstancyCheck(locked *netlist.Netlist, keyPos, funcPos []int, deadline time.Time) (*constancyCheck, error) {
	enc, c1, c2, err := encodeCopies(locked, keyPos)
	if err != nil {
		return nil, err
	}
	diffs := encodeDiffs(enc, c1, c2)
	return &constancyCheck{s: loadSolver(enc.F, deadline), c1: c1, c2: c2, diffs: diffs, keyPos: keyPos, funcPos: funcPos}, nil
}

// constant reports whether output outIdx is constant over K_rest at
// (pattern, ki=0): true iff the differing query is Unsat.
func (vc *constancyCheck) constant(bit int, pattern []bool, outIdx int) bool {
	assumps := make([]cnf.Lit, 0, len(pattern)+3)
	for i, p := range vc.funcPos {
		assumps = append(assumps, cnf.MkLit(vc.c1.Inputs[p], !pattern[i]))
	}
	assumps = append(assumps,
		cnf.MkLit(vc.c1.Inputs[vc.keyPos[bit]], true), // ki = 0 in both copies
		cnf.MkLit(vc.c2.Inputs[vc.keyPos[bit]], true),
		vc.diffs[outIdx]) // outputs differ
	return unsatUnder(vc.s, assumps...)
}

// encodeBitMiter encodes the universality miter of key bit `bit`: two
// copies sharing X and K_rest, ki=0 in copy 1 and ki=1 in copy 2, one
// XOR per output. It returns the formula, copy 1's variables and the
// XOR literals.
func encodeBitMiter(locked *netlist.Netlist, keyPos []int, bit int) (*cnf.Formula, *cnf.GateVars, []cnf.Lit, error) {
	enc, c1, c2, err := encodeCopies(locked, keyPos[bit:bit+1])
	if err != nil {
		return nil, nil, nil, err
	}
	enc.AssertLit(cnf.MkLit(c1.Inputs[keyPos[bit]], true))  // ki = 0 in copy 1
	enc.AssertLit(cnf.MkLit(c2.Inputs[keyPos[bit]], false)) // ki = 1 in copy 2
	return enc.F, c1, encodeDiffs(enc, c1, c2), nil
}

// encodeCopies encodes two copies of locked that share every input
// except those at the private positions.
func encodeCopies(locked *netlist.Netlist, private []int) (*cnf.Encoder, *cnf.GateVars, *cnf.GateVars, error) {
	enc := cnf.NewEncoder()
	c1, err := enc.Encode(locked, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	shared := make(map[int]cnf.Var, len(c1.Inputs))
	for p, v := range c1.Inputs {
		shared[p] = v
	}
	for _, p := range private {
		delete(shared, p)
	}
	c2, err := enc.Encode(locked, shared)
	if err != nil {
		return nil, nil, nil, err
	}
	return enc, c1, c2, nil
}

// encodeDiffs adds one XOR per output and returns its literals, each
// true iff the copies' outputs differ there.
func encodeDiffs(enc *cnf.Encoder, c1, c2 *cnf.GateVars) []cnf.Lit {
	diffs := make([]cnf.Lit, len(c1.Outputs))
	for i := range diffs {
		diffs[i] = cnf.MkLit(enc.EncodeXor2(cnf.MkLit(c1.Outputs[i], false), cnf.MkLit(c2.Outputs[i], false)), false)
	}
	return diffs
}

// loadSolver loads f into a fresh solver bounded by deadline. A
// formula that is already inconsistent leaves the solver answering
// Unsat to every query.
func loadSolver(f *cnf.Formula, deadline time.Time) *sat.Solver {
	s := sat.New()
	s.AddFormula(f)
	if !deadline.IsZero() {
		s.SetDeadline(deadline)
	}
	return s
}

// unsatUnder reports whether s refutes the assumptions. Both checkers
// certify a golden pattern only by Unsat; Unknown (the deadline passed)
// certifies nothing, so the pattern counts as non-golden.
func unsatUnder(s *sat.Solver, assumps ...cnf.Lit) bool {
	return s.Solve(assumps...) == sat.Unsat
}

// evalLockedAt simulates the locked netlist on (key, pattern) via the
// shared decode simulator and returns output outIdx.
func evalLockedAt(sim *netlist.Simulator, keyPos, funcPos []int, key, pattern []bool, outIdx int) bool {
	in := make([]bool, len(keyPos)+len(funcPos))
	for i, p := range keyPos {
		in[p] = key[i]
	}
	for i, p := range funcPos {
		in[p] = pattern[i]
	}
	return sim.Eval(in)[outIdx]
}
