// Package serve is the rild daemon: a long-running HTTP JSON service
// that accepts lock / attack / lint / sweep jobs, runs them on the
// sweep worker pool with per-job deadlines and panic isolation, and
// persists every outcome through the sweep checkpoint manifest (plus
// per-attack DIP journals) so a killed daemon restarts and resumes
// in-flight attacks without repeating a single oracle query.
//
// The package splits into:
//
//   - spec.go: the job submission schema and its validation
//   - queue.go: the priority / per-tenant fair scheduler
//   - job.go: the per-type job runners (attack, lock, lint, sweep)
//   - serve.go: the Server — persistence, workers, recovery, drain
//   - http.go: the HTTP surface (submit, status, SSE, metrics)
//   - loadtest.go: a client and load-test harness driven by cmd/rild
package serve

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/baselines"
)

// Job types accepted by the daemon.
const (
	TypeAttack = "attack" // oracle-guided SAT attack (or AppSAT) on a locked bench
	TypeLock   = "lock"   // lock a plain bench with one of the repo's schemes
	TypeLint   = "lint"   // netlint hygiene pass over a locked bench
	TypeSweep  = "sweep"  // a batch of attack targets run as one job
)

// Priority bounds. Higher runs first; within a priority, tenants are
// served round-robin and each tenant's jobs run in submission order.
const (
	MinPriority = -8
	MaxPriority = 8
)

// JobSpec is the submission payload (POST /jobs). Exactly one of the
// per-type sub-specs must be set, matching Type.
type JobSpec struct {
	// Type selects the job runner: attack, lock, lint or sweep.
	Type string `json:"type"`
	// Tenant names the submitter for fair scheduling. Empty is the
	// anonymous tenant; all tenants at the same priority share the
	// worker pool round-robin.
	Tenant string `json:"tenant,omitempty"`
	// Priority orders dispatch (higher first), clamped to
	// [MinPriority, MaxPriority].
	Priority int `json:"priority,omitempty"`
	// TimeoutMS bounds the whole job (queue wait excluded). Zero means
	// the server default; negative is rejected at submission, matching
	// the sweep.Job.Timeout contract.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// NoCache skips the result cache for this job even when the daemon
	// runs with one (e.g. to force a live attack).
	NoCache bool `json:"no_cache,omitempty"`

	Attack *AttackSpec `json:"attack,omitempty"`
	Lock   *LockSpec   `json:"lock,omitempty"`
	Lint   *LintSpec   `json:"lint,omitempty"`
	Sweep  *SweepSpec  `json:"sweep,omitempty"`
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

// LockSpec locks a plain bench with one of the repo's schemes; the
// scheme names match cmd/locker.
type LockSpec struct {
	// Bench is the original netlist in .bench text.
	Bench string `json:"bench"`
	// Scheme names an entry of the lock-scheme table,
	// baselines.SchemeNames: the names cmd/locker's -scheme takes.
	Scheme string `json:"scheme"`
	// Size is the RIL block geometry, e.g. "8x8" (ril only).
	Size string `json:"size,omitempty"`
	// Blocks is the RIL block / LUT / MESO gate count.
	Blocks int `json:"blocks,omitempty"`
	// KeyBits sizes the key for the baseline schemes.
	KeyBits int `json:"key_bits,omitempty"`
	// HD is the SFLL-HD Hamming distance.
	HD int `json:"hd,omitempty"`
	// Seed drives the deterministic lock randomness (0 means 1).
	Seed int64 `json:"seed,omitempty"`
	// Scan adds the hidden MTJ_SE layer (ril only).
	Scan bool `json:"scan,omitempty"`
}

// LintSpec runs the netlint hygiene analyzers over a bench.
type LintSpec struct {
	Bench     string `json:"bench"`
	KeyPrefix string `json:"key_prefix,omitempty"`
}

// SweepSpec batches attack targets into one job; targets run
// sequentially under the job's deadline, each with its own DIP
// journal, so a restart resumes mid-sweep without re-querying.
type SweepSpec struct {
	Targets []AttackSpec `json:"targets"`
}

// Validate rejects malformed specs at submission time, before anything
// is persisted or queued.
func (s *JobSpec) Validate() error {
	set := 0
	for _, sub := range []bool{s.Attack != nil, s.Lock != nil, s.Lint != nil, s.Sweep != nil} {
		if sub {
			set++
		}
	}
	if set != 1 {
		return fmt.Errorf("serve: spec must set exactly one of attack/lock/lint/sweep, got %d", set)
	}
	if s.TimeoutMS < 0 {
		return fmt.Errorf("serve: negative job timeout %dms", s.TimeoutMS)
	}
	if len(s.Tenant) > 64 {
		return fmt.Errorf("serve: tenant name longer than 64 bytes")
	}
	switch s.Type {
	case TypeAttack:
		if s.Attack == nil {
			return fmt.Errorf("serve: type %q without matching sub-spec", s.Type)
		}
		return s.Attack.validate()
	case TypeLock:
		if s.Lock == nil {
			return fmt.Errorf("serve: type %q without matching sub-spec", s.Type)
		}
		return s.Lock.validate()
	case TypeLint:
		if s.Lint == nil {
			return fmt.Errorf("serve: type %q without matching sub-spec", s.Type)
		}
		if strings.TrimSpace(s.Lint.Bench) == "" {
			return fmt.Errorf("serve: lint: empty bench")
		}
		return nil
	case TypeSweep:
		if s.Sweep == nil {
			return fmt.Errorf("serve: type %q without matching sub-spec", s.Type)
		}
		if len(s.Sweep.Targets) == 0 {
			return fmt.Errorf("serve: sweep: no targets")
		}
		for i := range s.Sweep.Targets {
			if err := s.Sweep.Targets[i].validate(); err != nil {
				return fmt.Errorf("serve: sweep target %d: %w", i, err)
			}
		}
		return nil
	}
	return fmt.Errorf("serve: unknown job type %q", s.Type)
}

func (a *AttackSpec) validate() error {
	if strings.TrimSpace(a.Bench) == "" {
		return fmt.Errorf("serve: attack: empty bench")
	}
	if strings.TrimSpace(a.Key) == "" {
		return fmt.Errorf("serve: attack: empty key")
	}
	if a.TimeoutMS < 0 {
		return fmt.Errorf("serve: attack: negative timeout %dms", a.TimeoutMS)
	}
	return nil
}

func (l *LockSpec) validate() error {
	if strings.TrimSpace(l.Bench) == "" {
		return fmt.Errorf("serve: lock: empty bench")
	}
	if !slices.Contains(baselines.SchemeNames(), l.Scheme) {
		return fmt.Errorf("serve: lock: unknown scheme %q", l.Scheme)
	}
	return nil
}

// clampPriority folds an out-of-range priority into bounds instead of
// rejecting it; a greedy client only gains the legal maximum.
func clampPriority(p int) int {
	if p < MinPriority {
		return MinPriority
	}
	if p > MaxPriority {
		return MaxPriority
	}
	return p
}

// jobTimeout resolves a spec's whole-job deadline against the server
// default.
func (s *JobSpec) jobTimeout(def time.Duration) time.Duration {
	if s.TimeoutMS > 0 {
		return time.Duration(s.TimeoutMS) * time.Millisecond
	}
	return def
}
