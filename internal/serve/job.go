package serve

import (
	"cmp"
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/attack"
	"repro/internal/baselines"
	"repro/internal/netlint"
	"repro/internal/netlist"
	"repro/internal/sat"
)

// Result payloads. These are what GET /jobs/{id} returns under
// "result" and what the manifest and cache persist, so the fields are
// stable JSON.

// AttackResult is one attack target's outcome.
type AttackResult struct {
	// Status is the attack verdict: key-found, timeout (the paper's
	// ∞), or failed.
	Status string `json:"status"`
	// Key is the recovered key as a little-endian bit string (set when
	// Status is key-found).
	Key     string `json:"key,omitempty"`
	KeyBits int    `json:"key_bits"`
	// Iterations counts DIPs; Replayed of them came from the journal,
	// so this run queried the oracle for Iterations-Replayed of them.
	Iterations int `json:"iterations"`
	Replayed   int `json:"replayed,omitempty"`
	// Queries is this run's live oracle-query count (journal replay
	// and verification excluded).
	Queries   int       `json:"queries"`
	ElapsedMS int64     `json:"elapsed_ms"`
	Solver    sat.Stats `json:"solver"`
	// ErrorRate is the verified residual error of the recovered key
	// (only when the spec asked to Verify).
	ErrorRate float64 `json:"error_rate,omitempty"`
	Verified  bool    `json:"verified,omitempty"`
}

// LockResult is a locked netlist plus its key, both in the text
// formats cmd/locker emits.
type LockResult struct {
	Scheme  string `json:"scheme"`
	Bench   string `json:"bench"`
	KeyBits int    `json:"key_bits"`
	// Key holds one name=bit line per key input.
	Key          []string `json:"key"`
	LintWarnings int      `json:"lint_warnings"`
}

// LintResult reports a hygiene pass.
type LintResult struct {
	Errors      int                  `json:"errors"`
	Warnings    int                  `json:"warnings"`
	Diagnostics []netlint.Diagnostic `json:"diagnostics,omitempty"`
}

// SweepResult aggregates a sweep job's targets.
type SweepResult struct {
	Targets    []*AttackResult `json:"targets"`
	Iterations int             `json:"iterations"`
	Queries    int             `json:"queries"`
}

// runAttackTarget runs one attack with journaled resume. journalKey
// names the target's journal inside StateDir/ckpt (attack.JournalPath);
// publish (may be nil) receives per-DIP progress.
func (s *Server) runAttackTarget(ctx context.Context, journalKey string, target int,
	spec *AttackSpec, publish func(ProgressEvent)) (*AttackResult, error) {
	prefix := cmp.Or(spec.KeyPrefix, "keyinput")
	at, err := attack.LoadTarget(journalKey, spec.Bench, journalKey, spec.Key, prefix)
	if err != nil {
		return nil, err
	}
	opts := attack.SATOptions{
		Timeout:   time.Duration(spec.TimeoutMS) * time.Millisecond,
		Context:   ctx,
		BVA:       spec.BVA,
		Portfolio: spec.Portfolio,
	}
	if publish != nil {
		opts.Progress = func(p attack.Progress) {
			publish(ProgressEvent{
				Target:    target,
				Iteration: p.Iteration,
				Queries:   at.Oracle.Queries(),
				ElapsedMS: p.Elapsed.Milliseconds(),
				Solver:    p.Solver,
			})
		}
	}
	// A journal in the state directory can only mean a previous run of
	// this same job, so the daemon always resumes.
	r, err := at.Run(attack.RunOptions{SAT: opts, AppSAT: spec.AppSAT, Journal: attack.JournalPath(s.ckpt, journalKey), Resume: true,
		Logf:   func(format string, args ...any) { s.logf("serve: %s", fmt.Sprintf(format, args...)) },
		Verify: spec.Verify})
	if err != nil {
		return nil, err
	}
	return &AttackResult{Status: r.Status.String(), Key: r.Key, KeyBits: len(at.KeyPos),
		Iterations: r.Iterations, Replayed: r.Replayed, Queries: r.Queries, ElapsedMS: r.Elapsed.Milliseconds(),
		Solver: r.Solver, ErrorRate: r.ErrorRate, Verified: r.Verified}, nil
}

// runLock locks the spec's bench, gates the result on the netlint
// hygiene analyzers exactly as cmd/locker's emit path does, and
// returns the locked bench plus key lines.
func runLock(spec *LockSpec) (*LockResult, error) {
	orig, err := netlist.ParseBench("submitted", strings.NewReader(spec.Bench))
	if err != nil {
		return nil, err
	}
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	l, lintOpts, err := baselines.LockScheme(spec.Scheme, orig, baselines.Params{
		Size: spec.Size, Blocks: spec.Blocks, KeyBits: spec.KeyBits, HD: spec.HD, Seed: seed, Scan: spec.Scan,
	})
	if err != nil {
		return nil, err
	}

	lint, err := netlint.Run(l.Netlist, lintOpts, netlint.Hygiene()...)
	if err != nil {
		return nil, err
	}
	if lint.HasErrors() {
		msgs := make([]string, 0, len(lint.Errors()))
		for _, d := range lint.Errors() {
			msgs = append(msgs, d.String())
		}
		return nil, fmt.Errorf("netlint gate: %s", strings.Join(msgs, "; "))
	}

	var bench strings.Builder
	if err := l.Netlist.WriteBench(&bench); err != nil {
		return nil, err
	}
	return &LockResult{
		Scheme:       spec.Scheme,
		Bench:        bench.String(),
		KeyBits:      len(l.Key),
		Key:          l.Netlist.KeyLines(l.KeyPos, l.Key),
		LintWarnings: lint.Count(netlint.Warn),
	}, nil
}

// runLint runs the hygiene analyzers; findings are data, not job
// failure — a bench with errors still yields a successful lint job
// whose result reports them.
func runLint(spec *LintSpec) (*LintResult, error) {
	nl, err := netlist.ParseBench("submitted", strings.NewReader(spec.Bench))
	if err != nil {
		return nil, err
	}
	res, err := netlint.Run(nl, netlint.Options{KeyPrefix: spec.KeyPrefix}, netlint.Hygiene()...)
	if err != nil {
		return nil, err
	}
	return &LintResult{
		Errors:      res.Count(netlint.Error),
		Warnings:    res.Count(netlint.Warn),
		Diagnostics: res.Diagnostics,
	}, nil
}

// runSweep runs a sweep job's targets sequentially under the shared
// ctx. Target i journals under "<id>#i", so a restart replays finished
// targets' journals and resumes the interrupted one.
func (s *Server) runSweep(ctx context.Context, id string, spec *SweepSpec, publish func(ProgressEvent)) (*SweepResult, error) {
	out := &SweepResult{}
	for i := range spec.Targets {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("sweep interrupted at target %d: %w", i, context.Cause(ctx))
		}
		r, err := s.runAttackTarget(ctx, fmt.Sprintf("%s#%d", id, i), i, &spec.Targets[i], publish)
		if err != nil {
			return nil, fmt.Errorf("target %d: %w", i, err)
		}
		out.Targets = append(out.Targets, r)
		out.Iterations += r.Iterations
		out.Queries += r.Queries
	}
	return out, nil
}
