package attack

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
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

// SensitizeVersion identifies Sensitize's search, as SearchVersion
// does the DIP loop's: 0 encoded each miter as two full copies of the
// netlist, 1 encodes the second copy over the first
// (cnf.Encoder.EncodeOver). The checkers' answers are fixed by
// semantics, but the candidate solver's search, and with it which bits
// resolve within the per-bit budget, belongs to one version. The keys
// of cached sensitization cells carry it.
const SensitizeVersion = 1

// Sensitize runs the key-sensitization attack. For each key bit i it
// solves the 2QBF-style query  ∃X ∀K_rest: C(X, ki=0) ≠ C(X, ki=1)
// with a CEGAR loop: a candidate solver proposes patterns, and two
// persistent checkers — the bit's universality check and its worker's
// value-constancy check, each encoded once — refute or confirm every
// candidate under assumptions. A pattern that survives is golden: one
// oracle query fixes bit i. perBitBudget bounds the CEGAR iterations
// per bit.
//
// The per-bit searches are independent and touch no oracle, so they
// run on min(GOMAXPROCS, key bits) workers, each with its own
// constancy check, taking bits in order. A bit's outcome depends only
// on its own solvers and on the checkers' semantically fixed answers,
// so the result does not depend on the worker count, except where the
// deadline cuts a search short. A bit not started when the deadline
// passes is unresolved.
//
// Golden patterns are swept through the oracle's BatchOracle fast
// path, 64 patterns per word-level simulation, once every search is
// done; each pattern still costs exactly one counted query and the
// oracle sees them in bit order, so Queries and the recovered key are
// identical to per-bit scalar probing.
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

	// Each bit's search stores its outcome at the bit; the oracle
	// sweep runs batched once every (SAT-bound) search is done.
	found := make([]probe, len(keyPos))
	workers := min(runtime.GOMAXPROCS(0), len(keyPos))
	errs := make([]error, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = searchBits(locked, keyPos, funcPos, perBitBudget, deadline, &next, found)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var pending []probe
	for _, p := range found {
		if !p.ok {
			res.Unresolved++
			continue
		}
		pending = append(pending, p)
		res.Queries++
		res.Resolved++
	}

	// Sweep the golden patterns through the oracle: full groups of 64
	// via QueryWords, the remainder as scalar queries, in bit order
	// either way. The observed output reveals each bit: since the
	// pattern is golden, output outIdx is k ⊕ c for a fixed polarity,
	// so comparing against the locked circuit at ki=0 (rest arbitrary,
	// all zeros here) decodes the oracle's value. One decode run of the
	// locked circuit, its key inputs at zero and its functional inputs
	// on the batch's lanes, gives every lane's ki=0 value.
	batch := AsBatch(oracle)
	words := make([]uint64, len(funcPos))
	inBuf := make([]bool, len(funcPos))
	outBuf := make([]uint64, oracle.NumOutputs())
	lockedWords := make([]uint64, len(locked.Inputs)) // key inputs stay 0
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
		for i, p := range funcPos {
			lockedWords[p] = words[i]
		}
		decoded := decodeSim.Run(lockedWords)
		for lane := 0; lane < n; lane++ {
			p := pending[startIdx+lane]
			diff := out[p.outIdx] ^ decoded[p.outIdx]
			res.Key[p.bit] = diff>>uint(lane)&1 != 0 // if oracle differs, ki = 1
			res.Mask[p.bit] = true
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// probe is one key bit's search outcome: when ok, the golden pattern
// and the output it flips.
type probe struct {
	ok          bool
	bit, outIdx int
	pattern     []bool
}

// searchBits runs the golden-pattern search of every key bit it takes
// from next, in order, until no bit is left or the deadline has
// passed, and stores each outcome in found. It builds its own
// constancy check first: a checker's learnt clauses are its own.
func searchBits(locked *netlist.Netlist, keyPos, funcPos []int, budget int, deadline time.Time, next *atomic.Int64, found []probe) error {
	vc, err := newConstancyCheck(locked, keyPos, funcPos, deadline)
	if err != nil {
		return err
	}
	for {
		bit := int(next.Add(1) - 1)
		if bit >= len(found) || !deadline.IsZero() && time.Now().After(deadline) {
			return nil
		}
		pattern, outIdx, ok, err := goldenPattern(locked, keyPos, funcPos, bit, budget, deadline, vc)
		if err != nil {
			return err
		}
		found[bit] = probe{ok: ok, bit: bit, outIdx: outIdx, pattern: pattern}
	}
}

// goldenPattern searches for an input X and output index o such that
// flipping key bit `bit` flips output o for EVERY assignment of the
// remaining key bits. A candidate solver proposes (X, o) pairs on which
// the bit flips o for some K_rest; two persistent checkers, each
// encoded once and queried under assumptions, refute or confirm them:
// the bit's universality check, loaded lazily from the candidate's own
// encoding, and the worker's value-constancy check vc.
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
// holds two copies of the locked netlist sharing X only, the second
// encoded over the first, so they share every gate outside the key
// inputs' fanout cones; one XOR per output; encoded once per worker.
// Each query pins X, ki=0 in both copies and "output o differs" as
// assumptions.
type constancyCheck struct {
	s               *sat.Solver
	c1, c2          *cnf.GateVars
	diffs           []cnf.Lit
	keyPos, funcPos []int
}

func newConstancyCheck(locked *netlist.Netlist, keyPos, funcPos []int, deadline time.Time) (*constancyCheck, error) {
	enc, c1, c2, err := encodeShared(locked, keyPos)
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
// copies sharing X and K_rest, and with them every gate outside ki's
// fanout cone, ki=0 in copy 1 and ki=1 in copy 2, one XOR per output.
// It returns the formula, copy 1's variables and the XOR literals.
func encodeBitMiter(locked *netlist.Netlist, keyPos []int, bit int) (*cnf.Formula, *cnf.GateVars, []cnf.Lit, error) {
	enc, c1, c2, err := encodeShared(locked, keyPos[bit:bit+1])
	if err != nil {
		return nil, nil, nil, err
	}
	enc.AssertLit(cnf.MkLit(c1.Inputs[keyPos[bit]], true))  // ki = 0 in copy 1
	enc.AssertLit(cnf.MkLit(c2.Inputs[keyPos[bit]], false)) // ki = 1 in copy 2
	return enc.F, c1, encodeDiffs(enc, c1, c2), nil
}

// encodeShared encodes two copies of locked into one formula, the
// second over the first (cnf.Encoder.EncodeOver): they share every
// input but the private ones and every gate outside those inputs'
// fanout cone. Both of Sensitize's miters are equisatisfiable with
// their two-full-copy encodings (encodeCopies), and an output outside
// the cone gets an XOR that no model sets.
func encodeShared(locked *netlist.Netlist, private []int) (*cnf.Encoder, *cnf.GateVars, *cnf.GateVars, error) {
	enc := cnf.NewEncoder()
	c1, err := enc.Encode(locked, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	c2, err := enc.EncodeOver(locked, c1, private)
	if err != nil {
		return nil, nil, nil, err
	}
	return enc, c1, c2, nil
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
