package attack

import (
	"context"
	"fmt"
	"io"
	"math/bits"
	"math/rand"
	"time"

	"repro/internal/netlist"
	"repro/internal/sat"
)

// bitString renders a bool slice little-endian as '0'/'1' runes.
func bitString(bits []bool) string {
	b := make([]byte, len(bits))
	for i, v := range bits {
		b[i] = '0'
		if v {
			b[i] = '1'
		}
	}
	return string(b)
}

// Status classifies an attack outcome.
type Status int

// Attack outcomes.
const (
	KeyFound Status = iota // the DIP loop converged and produced a key
	Timeout                // the attack's own budget ran out (the paper's ∞)
	Failed                 // attack terminated without a usable key
)

func (s Status) String() string {
	switch s {
	case KeyFound:
		return "key-found"
	case Timeout:
		return "timeout"
	}
	return "failed"
}

// SATOptions tunes the SAT attack.
type SATOptions struct {
	// Timeout bounds the whole attack (0 = none). The paper uses 5
	// days; the benches scale this down and report ∞ on expiry.
	Timeout time.Duration
	// Context, when non-nil, cancels the attack early: the solver
	// aborts at its next poll and the attack returns a nil result and
	// an error wrapping both ErrInterrupted and context.Cause(Context),
	// whether the context was cancelled or passed its deadline. Timeout
	// and MaxIterations are the attack's own budget and end it with
	// Status Timeout instead. The sweep runner and the daemon pass
	// their per-job contexts here.
	Context context.Context
	// MaxIterations bounds the DIP count (0 = unlimited).
	MaxIterations int
	// Portfolio, when >= 2, races that many diversified CDCL workers
	// per solver call (first definitive verdict wins, learnt clauses
	// shared; see sat.Portfolio). The attack's DIP sequence becomes
	// trace-nondeterministic — journals written in portfolio mode are
	// resumed by constraint replay rather than verified re-solving —
	// but the recovered key is still exact: every worker is sound, and
	// the accumulated DIP constraints are mode-independent. 0 or 1
	// selects the sequential solver.
	Portfolio int
	// BVA applies bounded variable addition preprocessing to the base
	// encoding (paper §IV-B pre-processing step).
	BVA bool
	// Trace, when non-nil, receives one CSV line per DIP:
	// iteration,dip-bits,oracle-bits (little-endian bit strings).
	Trace io.Writer
	// Progress, when non-nil, is called once per DIP iteration with
	// cumulative solver-effort counters, so long sweeps can report
	// where the solver is spending its time while the attack runs.
	Progress func(Progress)
	// Journal, when non-nil, durably records the attack: a header line
	// identifying the locked circuit, then one fsync'd record per
	// oracle query (DIP bits, oracle response, cumulative solver
	// state), and a terminal record on convergence. A crashed or killed
	// attack resumes from the journal via Resume without repeating a
	// single oracle query. Replayed iterations are not re-journaled.
	Journal *Journal
	// Resume, when non-nil, replays a previously journaled attack
	// before going live: the DIP loop re-runs deterministically, but
	// oracle answers for journaled DIPs are served from the journal
	// instead of the oracle (which is never queried for them). The
	// solver state after replay is bit-identical to the state of the
	// original run at its last record, so the continuation — DIP
	// sequence and final key — matches an uninterrupted attack. A
	// journal written by a different circuit, option set or solver
	// version fails with ErrReplayDiverged.
	//
	// When the journal was written by a portfolio attack — or this
	// attack runs one (Portfolio >= 2) — verified re-solving is
	// impossible (portfolio traces are nondeterministic), so replay
	// degrades to constraint replay: the journaled DIP constraints are
	// applied directly, without solving, before the live loop starts.
	// Still zero oracle re-queries; the continuation's DIP sequence may
	// differ from the uninterrupted run's, the recovered key may not.
	Resume *JournalData
}

// Progress is one per-iteration snapshot handed to SATOptions.Progress:
// the DIP count so far, wall time since the attack started, and the
// solver's cumulative counters (decisions, propagations, conflicts,
// restarts, learnt/removed clauses, max decision level).
type Progress struct {
	Iteration int
	Elapsed   time.Duration
	Solver    sat.Stats
}

// SATResult reports a SAT attack run.
type SATResult struct {
	Status     Status
	Key        []bool // recovered key (valid when Status == KeyFound)
	Iterations int    // number of distinguishing input patterns
	// Replayed counts iterations served from a resume journal; the
	// oracle was queried Iterations-Replayed times by this run.
	Replayed int
	Elapsed  time.Duration
	Solver   sat.Stats
}

func (r *SATResult) String() string {
	return fmt.Sprintf("%s after %d DIPs in %v (%v)", r.Status, r.Iterations, r.Elapsed.Round(time.Millisecond), r.Solver)
}

// SATAttack runs the oracle-guided SAT attack of Subramanyan et al.
// against a locked netlist: it iteratively finds distinguishing input
// patterns (inputs on which two candidate keys disagree), queries the
// oracle, and constrains the key space until no DIP remains; any key
// satisfying the accumulated constraints is then functionally
// equivalent to the oracle on all tested behaviour.
//
// keyPos gives the positions of the key inputs within locked.Inputs.
// The oracle takes the functional inputs only (in their relative
// order).
func SATAttack(locked *netlist.Netlist, keyPos []int, oracle Oracle, opt SATOptions) (*SATResult, error) {
	return dipLoop(locked, keyPos, oracle, opt, loopHooks{})
}

// matches validates a journal header against the header the resumed
// attack would write, rejecting resumption across circuits or options.
// Portfolio and Search are excluded: the accumulated DIP constraints
// are independent of solver mode and search, so journals resume across
// both (the replay strategy, not the validity, depends on them).
func (h JournalHeader) matches(want JournalHeader) error {
	h.Portfolio, want.Portfolio = false, false
	h.Search, want.Search = 0, 0
	if h != want {
		return fmt.Errorf("attack: journal header %+v does not match attack %+v: %w",
			h, want, ErrReplayDiverged)
	}
	return nil
}

// resultFromDone reconstructs a finished attack's result from its
// terminal journal record; the oracle is never queried.
func resultFromDone(d *JournalDone) (*SATResult, error) {
	res := &SATResult{
		Iterations: d.Iterations,
		Replayed:   d.Iterations,
		Elapsed:    time.Duration(d.ElapsedMS) * time.Millisecond,
		Solver:     d.Solver.Stats,
	}
	switch d.Status {
	case KeyFound.String():
		res.Status = KeyFound
		key, err := parseBits(d.Key)
		if err != nil {
			return nil, fmt.Errorf("attack: journal done record: %w", err)
		}
		res.Key = key
	case Failed.String():
		res.Status = Failed
	default:
		return nil, fmt.Errorf("attack: journal done record has status %q: %w", d.Status, ErrJournalCorrupt)
	}
	return res, nil
}

// randPatternWords fills in with `lanes` fresh random patterns drawn
// pattern-major from src (all inputs of lane 0, then lane 1, …),
// zeroing the remaining lanes. Each bit is (src.Int63()>>32)&1 — the
// exact draw math/rand's Intn(2) makes for a power-of-two bound — so
// the patterns are bit-identical to the per-pattern rng.Intn(2) loops
// this replaces, minus three layers of wrapper dispatch per bit.
// Callers holding a *rand.Rand over the same source may interleave
// draws freely: both sides consume exactly one Int63 per bit.
func randPatternWords(src rand.Source, in []uint64, lanes int) {
	for i := range in {
		in[i] = 0
	}
	for lane := uint(0); lane < uint(lanes); lane++ {
		for i := range in {
			in[i] |= (uint64(src.Int63()) >> 32 & 1) << lane
		}
	}
}

// VerifyKey checks a recovered key against an oracle by random
// simulation (rounds × 64 patterns) and reports the observed output
// error rate. A correct key scores 0.
func VerifyKey(locked *netlist.Netlist, keyPos []int, key []bool, oracle Oracle, rounds int, seed int64) (float64, error) {
	bound, err := locked.BindInputs(keyPos, key)
	if err != nil {
		return 0, err
	}
	boundOracle, err := NewSimOracle(bound)
	if err != nil {
		return 0, err
	}
	return OracleErrorRate(boundOracle, oracle, rounds, seed)
}

// OracleErrorRate measures the fraction of disagreeing output bits
// between two oracles over rounds × 64 random queries. Both oracles
// run on the BatchOracle fast path (64 patterns per word-level
// simulation); plain oracles degrade to scalar queries via AsBatch.
// The sampled patterns, the returned rate and the per-oracle query
// counts are bit-identical to the historical scalar loop for any
// (rounds, seed) — only the evaluation is batched.
func OracleErrorRate(a, b Oracle, rounds int, seed int64) (float64, error) {
	if a.NumInputs() != b.NumInputs() || a.NumOutputs() != b.NumOutputs() {
		return 0, fmt.Errorf("attack: oracle signature mismatch")
	}
	ba, bb := AsBatch(a), AsBatch(b)
	src := rand.NewSource(seed)
	in := make([]uint64, a.NumInputs())
	oa := make([]uint64, a.NumOutputs())
	diff, total := 0, 0
	for r := 0; r < rounds; r++ {
		// Draw pattern-major (all inputs of lane 0, then lane 1, …) so
		// lane b of word i reproduces exactly the bit the scalar loop
		// drew for (pattern r*64+b, input i).
		randPatternWords(src, in, 64)
		// Copy a's result: the two oracles may share one simulator
		// (self-comparison), and QueryWords buffers are only valid
		// until the owner's next query.
		copy(oa, ba.QueryWords(in))
		ob := bb.QueryWords(in)
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
