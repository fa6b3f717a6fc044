// Package serve is the rild daemon: a long-running HTTP JSON service
// that accepts oracle-guided SAT attack jobs, runs them on the sweep
// worker pool with per-job deadlines and panic isolation, and persists
// every outcome in its job manifest, keyed by job ID (plus per-job DIP
// journals), so a killed daemon restarts and resumes in-flight attacks
// without repeating a single oracle query.
//
// The package splits into:
//
//   - spec.go: the job submission schema and its validation
//   - queue.go: the FIFO job queue
//   - job.go: the attack runner and its result
//   - serve.go: the Server — persistence, workers, recovery, drain
//   - manifest.go: the job manifest, the log of finished jobs' outcomes
//   - http.go: the HTTP surface (submit, status, SSE, metrics)
//   - client.go: the API client and the locked-c17 targets that
//     cmd/rild's load harness and the tests submit
package serve

import (
	"fmt"
	"strings"
	"time"
)

// TypeAttack is the one job type the daemon runs: an oracle-guided SAT
// attack (or AppSAT) on a locked bench.
const TypeAttack = "attack"

// JobSpec is the submission payload (POST /jobs): Type "attack" and its
// Attack sub-spec. POST /jobs rejects a field that JobSpec does not
// name.
type JobSpec struct {
	// Type selects the job runner; "attack" is the only one.
	Type string `json:"type"`
	// TimeoutMS bounds the whole job (queue wait excluded). Zero means
	// the server default; negative is rejected at submission, matching
	// the sweep.Job.Timeout contract.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// NoCache skips the result cache for this job even when the daemon
	// runs with one (e.g. to force a live attack).
	NoCache bool `json:"no_cache,omitempty"`

	Attack *AttackSpec `json:"attack,omitempty"`
}

// AttackSpec is one oracle-guided attack target. The locked netlist
// and its correct key travel inline (the daemon never reads client
// paths), exactly as cmd/satattack would read them from disk.
type AttackSpec struct {
	// Bench is the locked netlist in .bench text.
	Bench string `json:"bench"`
	// Key is the correct key in the key-file format that cmd/locker
	// writes and netlist.ParseKey reads: one name=bit line per key
	// input, bit 0 or 1. It activates the simulated oracle; a malformed
	// line fails the job with an error naming the line.
	Key string `json:"key"`
	// KeyPrefix identifies key inputs by name prefix ("keyinput" when
	// empty).
	KeyPrefix string `json:"key_prefix,omitempty"`
	// TimeoutMS is the SAT budget: on expiry the attack reports the
	// paper's ∞ verdict (status "timeout") as a successful result,
	// unlike the whole-job deadline which fails the job. Zero means no
	// budget beyond the job deadline.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// AppSAT runs the approximate attack instead of the exact one.
	AppSAT bool `json:"appsat,omitempty"`
	// BVA applies bounded-variable-addition preprocessing.
	BVA bool `json:"bva,omitempty"`
	// Portfolio >= 2 races that many diversified CDCL workers per
	// solver call.
	Portfolio int `json:"portfolio,omitempty"`
	// Verify re-checks a recovered key against the oracle (16 random
	// rounds). Off by default so the oracle-query accounting of a
	// resumed attack stays exactly iterations-replayed.
	Verify bool `json:"verify,omitempty"`
}

// Validate rejects malformed specs at submission time, before anything
// is persisted or queued.
func (s *JobSpec) Validate() error {
	switch {
	case s.Type != TypeAttack:
		return fmt.Errorf("serve: unknown job type %q", s.Type)
	case s.Attack == nil:
		return fmt.Errorf("serve: type %q without matching sub-spec", s.Type)
	case s.TimeoutMS < 0:
		return fmt.Errorf("serve: negative job timeout %dms", s.TimeoutMS)
	case strings.TrimSpace(s.Attack.Bench) == "":
		return fmt.Errorf("serve: attack: empty bench")
	case strings.TrimSpace(s.Attack.Key) == "":
		return fmt.Errorf("serve: attack: empty key")
	case s.Attack.TimeoutMS < 0:
		return fmt.Errorf("serve: attack: negative timeout %dms", s.Attack.TimeoutMS)
	}
	return nil
}

// jobTimeout resolves a spec's whole-job deadline against the server
// default.
func (s *JobSpec) jobTimeout(def time.Duration) time.Duration {
	if s.TimeoutMS > 0 {
		return time.Duration(s.TimeoutMS) * time.Millisecond
	}
	return def
}
