package attack

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/netlist"
	"repro/internal/sat"
)

// Target is a locked netlist ready to attack, with the oracle the
// threat model grants: the locked circuit activated by its correct
// key.
type Target struct {
	Locked *netlist.Netlist
	KeyPos []int  // positions of the key inputs within Locked.Inputs
	Key    []bool // the correct key, ordered as KeyPos
	Oracle *SimOracle
}

// LoadTarget parses a locked .bench text and its key-file text
// (netlist.ParseKey) into an attack target. The key inputs are the
// inputs whose names start with prefix. benchName names the netlist,
// which journal headers record; keyName labels key-file errors.
func LoadTarget(benchName, bench, keyName, key, prefix string) (*Target, error) {
	locked, err := netlist.ParseBench(benchName, strings.NewReader(bench))
	if err != nil {
		return nil, err
	}
	keyPos := locked.GateIDsByPrefix(prefix)
	if len(keyPos) == 0 {
		return nil, fmt.Errorf("no key inputs with prefix %q", prefix)
	}
	byName, err := netlist.ParseKey(keyName, key)
	if err != nil {
		return nil, err
	}
	bits, err := locked.KeyFromNames(keyPos, byName)
	if err != nil {
		return nil, err
	}
	bound, err := locked.BindInputs(keyPos, bits)
	if err != nil {
		return nil, err
	}
	oracle, err := NewSimOracle(bound)
	if err != nil {
		return nil, err
	}
	return &Target{Locked: locked, KeyPos: keyPos, Key: bits, Oracle: oracle}, nil
}

// RunOptions selects the attack Target.Run mounts.
type RunOptions struct {
	// SAT budgets the attack; AppSAT reads only its Timeout and Context.
	SAT SATOptions
	// AppSAT runs AppSAT (DefaultAppSAT) instead of the exact attack.
	AppSAT bool
	// Journal, Resume and Logf are the exact attack's journal policy
	// (JournaledSATAttack); Journal "" journals nothing.
	Journal string
	Resume  bool
	Logf    func(format string, args ...any)
	// Verify checks a recovered key over 16×64 patterns at seed 1.
	Verify bool
}

// RunResult is the outcome of Target.Run.
type RunResult struct {
	Status     Status
	Key        string // BitString of the recovered key, when KeyFound
	Iterations int    // DIPs, Replayed of them from the journal
	Replayed   int
	Queries    int // the oracle's live queries, the key check excluded
	Solver     sat.Stats
	Elapsed    time.Duration // the key check excluded
	ErrorRate  float64       // of the recovered key, when Verified
	Verified   bool
}

// Run mounts AppSAT or the exact SAT attack on t and, when asked,
// checks the key it recovers. satattack and rild's attack jobs both
// run their targets through it.
func (t *Target) Run(o RunOptions) (*RunResult, error) {
	start := time.Now()
	out := &RunResult{}
	var recovered []bool
	if o.AppSAT {
		opt := DefaultAppSAT()
		opt.Timeout, opt.Context = o.SAT.Timeout, o.SAT.Context
		r, err := AppSAT(t.Locked, t.KeyPos, t.Oracle, opt)
		if err != nil {
			return nil, err
		}
		out.Status, recovered, out.Iterations = r.Status, r.Key, r.DIPs
	} else {
		r, err := JournaledSATAttack(o.Journal, o.Resume, o.Logf, t.Locked, t.KeyPos, t.Oracle, o.SAT)
		if err != nil {
			return nil, err
		}
		out.Status, recovered = r.Status, r.Key
		out.Iterations, out.Replayed, out.Solver = r.Iterations, r.Replayed, r.Solver
	}
	out.Queries, out.Elapsed = t.Oracle.Queries(), time.Since(start)
	if out.Status != KeyFound {
		return out, nil
	}
	out.Key = BitString(recovered)
	if o.Verify {
		e, err := VerifyKey(t.Locked, t.KeyPos, recovered, t.Oracle, 16, 1)
		if err != nil {
			return nil, err
		}
		out.ErrorRate, out.Verified = e, true
	}
	return out, nil
}
