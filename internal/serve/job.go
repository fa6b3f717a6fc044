package serve

import (
	"cmp"
	"context"
	"fmt"
	"time"

	"repro/internal/attack"
	"repro/internal/sat"
)

// AttackResult is an attack job's outcome: what GET /jobs/{id} returns
// under "result" and what the manifest and cache persist, so the
// fields are stable JSON.
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

// runAttack runs an attack job with journaled resume: its journal,
// named by the job ID inside StateDir/ckpt (attack.JournalPath), and
// its per-DIP progress frames.
func (s *Server) runAttack(ctx context.Context, js *jobState) (*AttackResult, error) {
	spec := js.spec.Attack
	prefix := cmp.Or(spec.KeyPrefix, "keyinput")
	at, err := attack.LoadTarget(js.id, spec.Bench, js.id, spec.Key, prefix)
	if err != nil {
		return nil, err
	}
	opts := attack.SATOptions{
		Timeout:   time.Duration(spec.TimeoutMS) * time.Millisecond,
		Context:   ctx,
		BVA:       spec.BVA,
		Portfolio: spec.Portfolio,
		Progress: func(p attack.Progress) {
			s.publish(js, "progress", &ProgressEvent{
				Iteration: p.Iteration,
				Queries:   at.Oracle.Queries(),
				ElapsedMS: p.Elapsed.Milliseconds(),
				Solver:    p.Solver,
			})
		},
	}
	// A journal in the state directory can only mean a previous run of
	// this same job, so the daemon always resumes.
	r, err := at.Run(attack.RunOptions{SAT: opts, AppSAT: spec.AppSAT, Journal: attack.JournalPath(s.ckpt, js.id), Resume: true,
		Logf:   func(format string, args ...any) { s.logf("serve: %s", fmt.Sprintf(format, args...)) },
		Verify: spec.Verify})
	if err != nil {
		return nil, err
	}
	return &AttackResult{Status: r.Status.String(), Key: r.Key, KeyBits: len(at.KeyPos),
		Iterations: r.Iterations, Replayed: r.Replayed, Queries: r.Queries, ElapsedMS: r.Elapsed.Milliseconds(),
		Solver: r.Solver, ErrorRate: r.ErrorRate, Verified: r.Verified}, nil
}
