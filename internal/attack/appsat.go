package attack

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"time"

	"repro/internal/netlist"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// AppSATOptions tunes the approximate attack.
type AppSATOptions struct {
	Timeout time.Duration
	// Context, when non-nil, cancels the attack early (see
	// SATOptions.Context).
	Context context.Context
	// DIPsPerRound is how many SAT-attack iterations run between error
	// estimations (d in the AppSAT paper).
	DIPsPerRound int
	// RandomQueries is the sample size for error estimation (q).
	RandomQueries int
	// ErrorThreshold: terminate when the estimated error of the current
	// candidate key drops to or below this rate.
	ErrorThreshold float64
	// MaxRounds bounds the outer loop.
	MaxRounds int
	Seed      int64
}

// DefaultAppSAT mirrors the attack's customary settings, scaled for a
// simulator substrate.
func DefaultAppSAT() AppSATOptions {
	return AppSATOptions{
		DIPsPerRound:   8,
		RandomQueries:  64,
		ErrorThreshold: 0.02,
		MaxRounds:      64,
		Seed:           1,
	}
}

// AppSATResult reports an AppSAT run.
type AppSATResult struct {
	Status        Status
	Key           []bool
	ErrorEstimate float64 // error rate AppSAT itself believed it achieved
	Rounds        int
	DIPs          int
	Elapsed       time.Duration
}

func (r *AppSATResult) String() string {
	return fmt.Sprintf("appsat %s: rounds=%d dips=%d est.err=%.4f in %v",
		r.Status, r.Rounds, r.DIPs, r.ErrorEstimate, r.Elapsed.Round(time.Millisecond))
}

// AppSAT runs the approximate SAT attack: interleaved DIP rounds and
// random-query reinforcement. It terminates early when the candidate
// key's estimated error dips below the threshold — which, for
// low-corruptibility schemes, yields an approximate key quickly. The
// returned key must still be validated against the functional circuit:
// under scan-enable obfuscation the oracle responses are corrupted, so
// AppSAT converges (if at all) to a key for the wrong function — the
// paper reports this as erroneous termination (Table III, ✗).
func AppSAT(locked *netlist.Netlist, keyPos []int, oracle Oracle, opt AppSATOptions) (*AppSATResult, error) {
	start := time.Now()
	if opt.DIPsPerRound <= 0 || opt.RandomQueries <= 0 || opt.MaxRounds <= 0 {
		return nil, fmt.Errorf("attack: bad AppSAT options %+v", opt)
	}
	src := rand.NewSource(opt.Seed)
	// Reinforcement scratch: word-level patterns plus the bool decode
	// buffers for constraint rows and scalar-fallback partial chunks.
	batch := AsBatch(oracle)
	words := make([]uint64, oracle.NumInputs())
	inBuf := make([]bool, oracle.NumInputs())
	outBuf := make([]bool, oracle.NumOutputs())
	wantBuf := make([]uint64, oracle.NumOutputs())
	var est float64
	endedInRound := false
	// The candidate key runs on the locked netlist itself, compiled at
	// the first round: each key input's word is all zeros or all ones,
	// as its bit of the candidate key says, and the functional inputs
	// carry the random patterns.
	var candSim *netlist.Simulator
	var candIn []uint64

	// One round ends every DIPsPerRound DIPs: extract the candidate key,
	// then estimate its error on random queries, adding every
	// mismatching query as one more constraint.
	round := func(m *miter, res *SATResult) (bool, error) {
		st, key, err := m.extractKey()
		if err != nil || st != KeyFound {
			res.Status, endedInRound = st, true
			return true, err
		}
		// Random-query reinforcement and error estimation, batched: the
		// candidate runs word-level directly, the oracle through its
		// BatchOracle fast path. Patterns are drawn lane-major in the
		// same RNG order as the historical scalar loop, mismatching
		// lanes reinforce in ascending pattern order, and partial
		// chunks fall back to scalar queries — so the estimate, the
		// added constraints and the oracle query count are all
		// bit-identical per seed.
		if candSim == nil {
			if candSim, err = netlist.NewSimulator(locked); err != nil {
				return false, err
			}
			candIn = make([]uint64, len(locked.Inputs))
		}
		for i, p := range m.keyPos {
			candIn[p] = 0
			if key[i] {
				candIn[p] = ^uint64(0)
			}
		}
		wrong := 0
		for done := 0; done < opt.RandomQueries; {
			chunk := opt.RandomQueries - done
			if chunk > 64 {
				chunk = 64
			}
			randPatternWords(src, words, chunk)
			for i, p := range m.funcPos {
				candIn[p] = words[i]
			}
			var want []uint64
			if chunk == 64 {
				want = batch.QueryWords(words)
			} else {
				want = queryLanes(oracle, words, chunk, inBuf, wantBuf)
			}
			got := candSim.Run(candIn)
			var mask uint64
			for i := range want {
				mask |= want[i] ^ got[i]
			}
			if chunk < 64 {
				mask &= 1<<uint(chunk) - 1
			}
			for lanes := mask; lanes != 0; lanes &= lanes - 1 {
				lane := bits.TrailingZeros64(lanes)
				for i := range inBuf {
					inBuf[i] = words[i]&(1<<uint(lane)) != 0
				}
				for i := range outBuf {
					outBuf[i] = want[i]&(1<<uint(lane)) != 0
				}
				wrong++
				if !m.constrainDIP(inBuf, outBuf) {
					res.Status, endedInRound = Failed, true // no key fits the oracle
					return true, nil
				}
			}
			done += chunk
		}
		est = float64(wrong) / float64(opt.RandomQueries)
		if est <= opt.ErrorThreshold {
			res.Status, res.Key, endedInRound = KeyFound, key, true
			return true, nil
		}
		return false, nil
	}

	res, err := dipLoop(locked, keyPos, oracle, SATOptions{
		Timeout:       opt.Timeout,
		Context:       opt.Context,
		MaxIterations: opt.MaxRounds * opt.DIPsPerRound,
	}, loopHooks{every: opt.DIPsPerRound, round: round})
	if err != nil {
		return nil, err
	}
	out := &AppSATResult{
		Status: res.Status, Key: res.Key, ErrorEstimate: est,
		Rounds: res.Iterations / opt.DIPsPerRound, DIPs: res.Iterations,
		Elapsed: time.Since(start),
	}
	if !endedInRound {
		// The loop stopped inside a round: it converged (the exact
		// key, error 0), ran out of budget, or used up its rounds.
		out.Rounds = min(out.Rounds+1, opt.MaxRounds)
		if res.Status == KeyFound {
			out.ErrorEstimate = 0
		}
	}
	return out, nil
}
