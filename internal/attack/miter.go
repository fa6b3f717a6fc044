package attack

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/cnf"
	"repro/internal/netlist"
	"repro/internal/sat"
)

// ErrInterrupted reports an attack ended by its context
// (SATOptions.Context, AppSATOptions.Context) before it reached a
// verdict. Such a run returns no result. The error also wraps
// context.Cause of that context, so errors.Is tells a cancellation
// (context.Canceled) from a deadline (context.DeadlineExceeded). The
// attack's own budget never produces it: that is Status Timeout, the
// paper's ∞.
var ErrInterrupted = errors.New("attack interrupted")

// miter is the formula every oracle-guided attack solves: two copies
// of one netlist sharing the functional inputs, one XOR per output,
// and the difference clause (some XOR is true) gated by the activation
// variable act. One engine then answers both "is there a
// distinguishing input" (assuming act) and "which key satisfies every
// constraint so far" (assuming ¬act). DIP constraints are stamped from
// a template compiled once from the netlist.
type miter struct {
	eng             sat.Engine
	ctx             context.Context
	tmpl            *cnf.Template
	c1              *cnf.GateVars
	act             cnf.Var
	funcPos, keyPos []int
	key1, key2      []cnf.Var
}

// newMiter encodes locked's miter and loads it into
// sat.NewEngine(opt.Portfolio), cancelled by opt.Context. base, when
// non-nil, adds clauses over both copies after the difference clause
// and before the optional BVA pass. The caller sets the deadline.
func newMiter(locked *netlist.Netlist, keyPos []int, opt SATOptions, base func(enc *cnf.Encoder, c1, c2 *cnf.GateVars)) (*miter, error) {
	funcPos, err := splitInputs(locked, keyPos)
	if err != nil {
		return nil, err
	}
	enc, c1, c2, err := encodeCopies(locked, locked, keyPos)
	if err != nil {
		return nil, err
	}
	diffs := encodeDiffs(enc, c1, c2)
	act := enc.F.NewVar()
	enc.F.AddClause(append(diffs, cnf.MkLit(act, true))...)
	if base != nil {
		base(enc, c1, c2)
	}
	if opt.BVA {
		cnf.BVA(enc.F, 4, 32)
	}
	// Compile the netlist to a CNF template once: every DIP stamps two
	// constrained copies from it instead of re-running the Tseitin
	// encoder.
	tmpl, err := cnf.CompileTemplate(locked)
	if err != nil {
		return nil, err
	}
	m := &miter{
		eng: sat.NewEngine(opt.Portfolio), ctx: opt.Context, tmpl: tmpl, c1: c1, act: act,
		funcPos: funcPos, keyPos: keyPos,
		key1: make([]cnf.Var, len(keyPos)), key2: make([]cnf.Var, len(keyPos)),
	}
	for i, p := range keyPos {
		m.key1[i], m.key2[i] = c1.Inputs[p], c2.Inputs[p]
	}
	if !m.eng.AddFormula(enc.F) {
		return nil, fmt.Errorf("attack: base encoding unsatisfiable")
	}
	if opt.Context != nil {
		m.eng.SetContext(opt.Context)
	}
	return m, nil
}

// nextDIP solves under act. On Sat it also returns the distinguishing
// input: the model's functional-input values.
func (m *miter) nextDIP() (sat.Status, []bool) {
	st := m.eng.Solve(cnf.MkLit(m.act, false))
	if st != sat.Sat {
		return st, nil
	}
	dip := make([]bool, len(m.funcPos))
	for i, p := range m.funcPos {
		dip[i] = m.eng.ModelValue(cnf.MkLit(m.c1.Inputs[p], false))
	}
	return st, dip
}

// extractKey solves under ¬act for a key consistent with every
// constraint so far: KeyFound with the key, Failed when no key fits,
// Timeout when the budget ran out first, and ErrInterrupted when the
// context ended.
func (m *miter) extractKey() (Status, []bool, error) {
	switch m.eng.Solve(cnf.MkLit(m.act, true)) {
	case sat.Sat:
		model := m.eng.Model()
		key := make([]bool, len(m.key1))
		for i, v := range m.key1 {
			key[i] = model[v]
		}
		return KeyFound, key, nil
	case sat.Unknown:
		return Timeout, nil, m.interrupted()
	}
	return Failed, nil, nil
}

// constrainDIP stamps two copies of the netlist with the functional
// inputs fixed to dip, one on each key copy, and requires both to
// reproduce the oracle's response out. Only the logic the DIP leaves
// key-dependent is stamped; an output the DIP alone decides must
// already match the oracle. It reports false when the constraint makes
// the miter unsatisfiable: no key reproduces the oracle on every DIP
// so far.
func (m *miter) constrainDIP(dip, out []bool) bool {
	fixed := make(map[int]bool, len(m.funcPos))
	for i, p := range m.funcPos {
		fixed[p] = dip[i]
	}
	for _, keyVars := range [][]cnf.Var{m.key1, m.key2} {
		shared := make(map[int]cnf.Var, len(m.keyPos))
		for i, p := range m.keyPos {
			shared[p] = keyVars[i]
		}
		outs, ok := m.tmpl.StampFixed(m.eng, shared, fixed)
		if !ok {
			return false
		}
		for i, o := range outs {
			if !out[i] {
				o = o.Not()
			}
			switch o {
			case cnf.LitTrue: // the DIP alone gives the oracle's value
			case cnf.LitFalse: // the DIP alone contradicts the oracle
				return false
			default:
				if !m.eng.AddClause(o) {
					return false
				}
			}
		}
	}
	return true
}

// interrupted returns the ErrInterrupted error once the miter's
// context has ended, nil before.
func (m *miter) interrupted() error {
	if m.ctx == nil || m.ctx.Err() == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrInterrupted, context.Cause(m.ctx))
}

// encodeCopies encodes a and b into one formula, b reusing a's input
// variables at every position except the private ones. a and b must
// have the same number of inputs.
func encodeCopies(a, b *netlist.Netlist, private []int) (*cnf.Encoder, *cnf.GateVars, *cnf.GateVars, error) {
	enc := cnf.NewEncoder()
	c1, err := enc.Encode(a, nil)
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
	c2, err := enc.Encode(b, shared)
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

// loopHooks are the DIP loop's variant points; the zero value is the
// plain SAT attack.
type loopHooks struct {
	// base adds clauses over both miter copies after the difference
	// clause and before BVA: the one-hot permutation constraints.
	base func(enc *cnf.Encoder, c1, c2 *cnf.GateVars)
	// round, when set, runs after every `every` DIPs, once the last
	// DIP's constraint is in place: AppSAT's key extraction and
	// random-query reinforcement. It ends the attack by setting
	// res.Status (and res.Key) and returning true.
	every int
	round func(m *miter, res *SATResult) (bool, error)
}

// dipLoop is the one DIP loop behind every oracle-guided attack: it
// builds the miter, replays a resume journal, then alternates DIP
// solves, oracle queries and DIP constraints until no DIP remains, a
// budget (Timeout, MaxIterations) runs out, a hook ends the attack, or
// the context ends it with ErrInterrupted.
func dipLoop(locked *netlist.Netlist, keyPos []int, oracle Oracle, opt SATOptions, h loopHooks) (*SATResult, error) {
	start := time.Now()
	m, err := newMiter(locked, keyPos, opt, h.base)
	if err != nil {
		return nil, err
	}
	if oracle.NumInputs() != len(m.funcPos) || oracle.NumOutputs() != len(locked.Outputs) {
		return nil, fmt.Errorf("attack: oracle has %d inputs and %d outputs, locked netlist has %d functional inputs and %d outputs",
			oracle.NumInputs(), oracle.NumOutputs(), len(m.funcPos), len(locked.Outputs))
	}
	res := &SATResult{}

	// Checkpoint/resume plumbing. A resumed attack's wall clock
	// continues from the journaled elapsed time, so Timeout bounds the
	// *total* attack (the paper's 5-day budget), not each resume slice.
	var header JournalHeader
	var replay []JournalRecord
	if opt.Journal != nil || opt.Resume != nil {
		fp, err := Fingerprint(locked, keyPos)
		if err != nil {
			return nil, err
		}
		header = JournalHeader{
			Version: JournalVersion, Circuit: locked.Name,
			Inputs: len(m.funcPos), Outputs: len(locked.Outputs),
			KeyBits: len(keyPos), BVA: opt.BVA, Fingerprint: fp,
			Portfolio: opt.Portfolio >= 2, Search: SearchVersion,
		}
	}
	constraintReplay := false
	if opt.Resume != nil {
		if err := opt.Resume.Header.matches(header); err != nil {
			return nil, err
		}
		if opt.Resume.Done != nil {
			// The journaled attack already finished: reconstruct its
			// result without touching solver or oracle.
			return resultFromDone(opt.Resume, opt.Timeout)
		}
		replay = opt.Resume.Records
		// Verified re-solving needs the journal's trajectory: this
		// search, run sequentially on both sides.
		constraintReplay = opt.Resume.Header.Portfolio || opt.Portfolio >= 2 ||
			opt.Resume.Header.Search != SearchVersion
		if n := len(replay); n > 0 {
			start = start.Add(-time.Duration(replay[n-1].ElapsedMS) * time.Millisecond)
		}
	}
	if opt.Journal != nil && !opt.Journal.HeaderWritten() {
		if err := opt.Journal.WriteHeader(header); err != nil {
			return nil, err
		}
	}
	if opt.Timeout > 0 {
		m.eng.SetDeadline(start.Add(opt.Timeout))
	}

	if constraintReplay {
		// Constraint replay: apply every journaled DIP constraint
		// directly, without solving. The oracle is never queried for
		// journaled records, and the live loop below starts from a
		// clause database equivalent to the original run's — same DIP
		// constraints, different learnt clauses.
		for _, rec := range replay {
			dip, err := parseBits(rec.DIP)
			if err != nil {
				return nil, err
			}
			out, err := parseBits(rec.Oracle)
			if err != nil {
				return nil, err
			}
			if !m.constrainDIP(dip, out) {
				// A journal for this circuit cannot contradict its own
				// encoding; a top-level conflict means the journal
				// belongs elsewhere.
				return nil, fmt.Errorf("attack: replaying iteration %d: DIP constraint made the miter unsatisfiable: %w",
					rec.Iteration, ErrReplayDiverged)
			}
			res.Replayed++
			res.Iterations++
			if opt.Trace != nil {
				fmt.Fprintf(opt.Trace, "%d,%s,%s\n", res.Iterations, rec.DIP, rec.Oracle)
			}
		}
		replay = nil
	}

	for {
		if opt.MaxIterations > 0 && res.Iterations >= opt.MaxIterations {
			res.Status = Timeout
			break
		}
		if err := m.interrupted(); err != nil {
			return nil, err
		}
		st, dip := m.nextDIP()
		if st == sat.Unknown {
			if err := m.interrupted(); err != nil {
				return nil, err
			}
			res.Status = Timeout
			break
		}
		if st == sat.Unsat {
			// Converged: extract any key consistent with all DIPs.
			if res.Status, res.Key, err = m.extractKey(); err != nil {
				return nil, err
			}
			break
		}

		var out []bool
		if res.Replayed < len(replay) {
			// Serve the oracle answer from the journal. The solver is
			// deterministic, so it must have rediscovered the journaled
			// DIP; anything else means the journal belongs to a
			// different circuit or solver version.
			rec := replay[res.Replayed]
			if got := BitString(dip); got != rec.DIP {
				return nil, fmt.Errorf("attack: iteration %d: solver found DIP %s, journal has %s: %w",
					res.Iterations+1, got, rec.DIP, ErrReplayDiverged)
			}
			if snap := m.eng.Snapshot(); snap != rec.Solver {
				return nil, fmt.Errorf("attack: iteration %d: solver state %+v does not match journal %+v: %w",
					res.Iterations+1, snap, rec.Solver, ErrReplayDiverged)
			}
			out, err = parseBits(rec.Oracle)
			if err != nil {
				return nil, err
			}
			res.Replayed++
			res.Iterations++
		} else {
			out = oracle.Query(dip)
			res.Iterations++
			if opt.Journal != nil {
				err := opt.Journal.Append(JournalRecord{
					Iteration: res.Iterations,
					DIP:       BitString(dip),
					Oracle:    BitString(out),
					ElapsedMS: time.Since(start).Milliseconds(),
					Solver:    m.eng.Snapshot(),
				})
				if err != nil {
					return nil, err
				}
			}
		}
		if opt.Trace != nil {
			fmt.Fprintf(opt.Trace, "%d,%s,%s\n", res.Iterations, BitString(dip), BitString(out))
		}
		if opt.Progress != nil {
			opt.Progress(Progress{
				Iteration: res.Iterations,
				Elapsed:   time.Since(start),
				Solver:    m.eng.Stats(),
			})
		}

		// Constrain both key copies to reproduce the oracle on the DIP.
		if !m.constrainDIP(dip, out) {
			res.Status = Failed // no key fits the oracle
			break
		}
		if h.round != nil && res.Iterations%h.every == 0 {
			done, err := h.round(m, res)
			if err != nil {
				return nil, err
			}
			if done {
				break
			}
		}
	}
	if res.Status != Timeout && res.Replayed < len(replay) {
		// A deterministic re-run must consume every journaled record
		// before it can converge; stopping short means the journal was
		// written by a different attack.
		return nil, fmt.Errorf("attack: converged after %d iterations but journal holds %d records: %w",
			res.Iterations, len(replay), ErrReplayDiverged)
	}
	res.Elapsed = time.Since(start)
	res.Solver = m.eng.Stats()
	// A converged (or terminally failed) attack gets a done record so
	// resuming its journal is a pure read; a timed-out attack does not
	// — its journal stays open-ended for the next resume slice.
	if opt.Journal != nil && (res.Status == KeyFound || res.Status == Failed) {
		d := JournalDone{
			Status:     res.Status.String(),
			Iterations: res.Iterations,
			ElapsedMS:  res.Elapsed.Milliseconds(),
			Solver:     m.eng.Snapshot(),
		}
		if res.Key != nil {
			d.Key = BitString(res.Key)
		}
		if err := opt.Journal.Finish(d); err != nil {
			return nil, err
		}
	}
	return res, nil
}
