// Package sweep runs attack and experiment jobs concurrently on a
// worker pool. The paper's headline evaluation (Tables I and III–VI)
// is a large sweep — oracle-guided SAT attacks over many benchmarks ×
// RIL-Block counts × LUT sizes, each with its own wall-clock budget —
// and the jobs are mutually independent, so the sweep parallelizes
// perfectly up to the core count. The runner guarantees:
//
//   - per-job deterministic seeds (DeriveSeed splits a base seed so
//     results are identical regardless of worker count or schedule)
//   - per-job deadlines via context.Context, threaded down through
//     attack.SATOptions into the CDCL solver's abort poll
//   - panic isolation: a crashing job becomes a failed Result, not a
//     dead sweep
//   - results in job order, independent of completion order
package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/cache"
)

// Job is one unit of sweep work. Run receives a context that is
// cancelled at the job's deadline (Job.Timeout, falling back to
// Runner.Timeout) or when the whole sweep is cancelled, plus the job's
// deterministic seed.
type Job struct {
	// Name identifies the job in results and progress output.
	Name string
	// Seed is the job's deterministic seed. Runners do not invent
	// seeds: build jobs with DeriveSeed so a sweep is reproducible
	// from its base seed alone.
	Seed int64
	// Timeout overrides the runner's default per-job timeout
	// (0 = inherit). A negative Timeout is a configuration error, not a
	// "no deadline" request: Run and RunOne reject it up front with
	// ErrNegativeTimeout instead of silently running unbounded.
	Timeout time.Duration
	// CacheKey, when valid and Runner.Cache is set, identifies the
	// job's result in the content-addressed cache: the job is served
	// from the cache before dispatch and stored back on success. The
	// zero Key opts the job out. Builders must fold *everything* that
	// determines the result into the key (netlist canonical form, all
	// options, the seed) — the cache trusts the key completely.
	CacheKey cache.Key
	// Run executes the job. The returned value lands in Result.Value.
	Run func(ctx context.Context, seed int64) (any, error)
}

// Result is the outcome of one job.
type Result struct {
	Name    string        `json:"name"`
	Index   int           `json:"index"`
	Worker  int           `json:"worker"`
	Value   any           `json:"value,omitempty"`
	Err     error         `json:"-"`
	Error   string        `json:"error,omitempty"` // Err rendered for JSON
	Panic   bool          `json:"panic,omitempty"`
	Elapsed time.Duration `json:"-"`
	Seconds float64       `json:"seconds"`
	// Resumed marks a job that was not run because a checkpoint
	// manifest already records it done; Value then holds the recorded
	// json.RawMessage payload, not the job's native result type.
	Resumed bool `json:"resumed,omitempty"`
	// Cached marks a job served from Runner.Cache without running;
	// like Resumed, Value holds the json.RawMessage payload the
	// original run stored.
	Cached bool `json:"cached,omitempty"`
}

// PanicError is the Result.Err of a job that panicked; the sweep
// itself survives.
type PanicError struct {
	Value any
	Stack string
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("job panicked: %v\n%s", e.Value, e.Stack)
}

// Runner executes jobs on a bounded worker pool.
type Runner struct {
	// Workers is the pool size; 0 or negative means runtime.NumCPU().
	Workers int
	// Timeout is the default per-job deadline (0 = none).
	Timeout time.Duration
	// Progress, when non-nil, is called from worker goroutines as each
	// job finishes (in completion order, not job order). It must be
	// safe for concurrent use. Jobs skipped via a checkpoint manifest
	// report once, up front, with Resumed set.
	Progress func(Result)
	// Checkpoint, when non-nil, persists every job completion to the
	// checkpoint directory's manifest and, when the checkpoint was
	// opened with ResumeCheckpoint, skips jobs the manifest already
	// records as done (failed jobs re-run). Jobs that want their own
	// partial-progress files derive paths via Checkpoint.JobFile.
	Checkpoint *Checkpoint
	// Cache, when non-nil, serves jobs with a valid CacheKey from the
	// content-addressed result cache before dispatch and stores each
	// successful result back after the run. The checkpoint manifest
	// takes precedence on resume — jobs it records done are skipped
	// outright — and cache hits are themselves recorded into the
	// manifest, so a resumed sweep consults the cache exactly for the
	// jobs the manifest does not yet cover. Failed jobs are never
	// cached.
	Cache *cache.Cache
}

// ErrNegativeTimeout reports a Job built with a negative Timeout. The
// field's contract is "0 = inherit the runner default, positive =
// override"; a negative value is always a caller bug (most often a
// subtraction that went past zero), and silently treating it as "no
// deadline" would disable the very guardrail the field exists for. Run
// and RunOne fail fast at entry instead of running anything.
var ErrNegativeTimeout = errors.New("sweep: negative job timeout")

// checkTimeouts validates every job's Timeout before any job runs,
// returning a descriptive ErrNegativeTimeout for the first offender.
func checkTimeouts(jobs []Job) error {
	for i := range jobs {
		if jobs[i].Timeout < 0 {
			return fmt.Errorf("job %q (index %d) has timeout %v: %w",
				jobs[i].Name, i, jobs[i].Timeout, ErrNegativeTimeout)
		}
	}
	return nil
}

// Run executes all jobs and returns their results in job order. A
// cancelled ctx stops the sweep: running jobs see their contexts
// cancelled, queued jobs are not started and report ctx's error. A job
// with a negative Timeout fails the whole sweep at entry — every
// result carries ErrNegativeTimeout and nothing runs.
func (r *Runner) Run(ctx context.Context, jobs []Job) []Result {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := checkTimeouts(jobs); err != nil {
		results := make([]Result, len(jobs))
		for i := range jobs {
			results[i] = Result{Name: jobs[i].Name, Index: i, Worker: -1,
				Err: err, Error: err.Error()}
		}
		return results
	}
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	results := make([]Result, len(jobs))
	// Resolve checkpointed completions first so workers only ever see
	// jobs that actually need to run.
	skipped := make([]bool, len(jobs))
	if r.Checkpoint != nil {
		for i := range jobs {
			entry, ok := r.Checkpoint.Completed(jobs[i].Name)
			if !ok {
				continue
			}
			skipped[i] = true
			results[i] = Result{Name: jobs[i].Name, Index: i, Worker: -1,
				Value: entry.Value, Seconds: entry.Seconds, Resumed: true}
			if r.Progress != nil {
				r.Progress(results[i])
			}
		}
	}
	// Then the cross-run cache: jobs the manifest does not cover are
	// looked up by content key before dispatch, so repeated and
	// overlapping sweeps (and resumed sweeps whose manifest is behind
	// the cache) re-run nothing the cache already proves done.
	if r.Cache != nil {
		for i := range jobs {
			if skipped[i] || !jobs[i].CacheKey.Valid() {
				continue
			}
			raw, seconds, ok := r.Cache.GetTimed(jobs[i].CacheKey)
			if !ok {
				continue
			}
			skipped[i] = true
			// The hit keeps the original run's wall clock (stored by
			// PutTimed below) so warm report cells and JSON results never
			// show a 0-second runtime for real solver work.
			results[i] = Result{Name: jobs[i].Name, Index: i, Worker: -1,
				Value: json.RawMessage(raw), Cached: true,
				Seconds: seconds, Elapsed: time.Duration(seconds * float64(time.Second))}
			if r.Checkpoint != nil {
				if err := r.Checkpoint.record(results[i]); err != nil {
					results[i].Err = fmt.Errorf("checkpoint: %w", err)
					results[i].Error = results[i].Err.Error()
				}
			}
			if r.Progress != nil {
				r.Progress(results[i])
			}
		}
	}
	idxCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := range idxCh {
				results[i] = r.runOne(ctx, worker, i, jobs[i])
				if r.Checkpoint != nil {
					if err := r.Checkpoint.record(results[i]); err != nil && results[i].Err == nil {
						results[i].Err = fmt.Errorf("checkpoint: %w", err)
						results[i].Error = results[i].Err.Error()
					}
				}
				// Store successful results for future runs. A failed
				// store must not fail the job — the cache keeps its own
				// error counter and the result is already in hand.
				if r.Cache != nil && jobs[i].CacheKey.Valid() &&
					results[i].Err == nil && results[i].Value != nil {
					if raw, err := json.Marshal(results[i].Value); err == nil {
						_ = r.Cache.PutTimed(jobs[i].CacheKey, raw, results[i].Seconds)
					}
				}
				if r.Progress != nil {
					r.Progress(results[i])
				}
			}
		}(w)
	}
feed:
	for i := range jobs {
		if skipped[i] {
			continue
		}
		select {
		case idxCh <- i:
		case <-ctx.Done():
			// Mark every job not yet handed to a worker as cancelled.
			for j := i; j < len(jobs); j++ {
				if skipped[j] {
					continue
				}
				results[j] = Result{Name: jobs[j].Name, Index: j, Worker: -1,
					Err: ctx.Err(), Error: ctx.Err().Error()}
			}
			break feed
		}
	}
	close(idxCh)
	wg.Wait()
	return results
}

// RunOne executes a single job with the runner's default deadline and
// panic isolation but without the batch pool: long-lived consumers
// (the rild daemon's queue workers) dequeue jobs one at a time and run
// each through RunOne, getting the exact per-job semantics of Run —
// including the negative-Timeout contract and the interrupted-result
// accounting on a cancelled ctx.
func (r *Runner) RunOne(ctx context.Context, job Job) Result {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := checkTimeouts([]Job{job}); err != nil {
		return Result{Name: job.Name, Worker: -1, Err: err, Error: err.Error()}
	}
	return r.runOne(ctx, -1, 0, job)
}

// runOne executes a single job with deadline and panic isolation.
func (r *Runner) runOne(ctx context.Context, worker, index int, job Job) (res Result) {
	res = Result{Name: job.Name, Index: index, Worker: worker}
	timeout := job.Timeout
	if timeout == 0 {
		timeout = r.Timeout
	}
	jctx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		jctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	start := time.Now()
	defer func() {
		res.Elapsed = time.Since(start)
		res.Seconds = res.Elapsed.Seconds()
		if p := recover(); p != nil {
			res.Err = &PanicError{Value: p, Stack: string(debug.Stack())}
			res.Panic = true
		}
		if res.Err == nil && ctx.Err() != nil {
			// The sweep itself was cancelled while the job ran. A nil
			// error here cannot be trusted to mean "complete": a job may
			// swallow its context and return a truncated run as an
			// ordinary value, and recording that as done would make a
			// checkpoint resume skip an unfinished job forever.
			// Conservatively mark the result interrupted — a re-run
			// picks up the job's own journal, so the only cost is
			// re-dispatching a job that may have just finished. Per-job
			// deadlines (jctx) are not affected: what a job returns at
			// its own deadline is its result.
			res.Err = fmt.Errorf("sweep: job interrupted: %w", ctx.Err())
		}
		if res.Err != nil {
			res.Error = res.Err.Error()
		}
	}()
	res.Value, res.Err = job.Run(jctx, job.Seed)
	return res
}

// DeriveSeed deterministically splits a base seed per job index using
// a SplitMix64 step, so jobs get independent, schedule-invariant
// streams. Index 0 with base b never collides with index 1 of base b-1.
func DeriveSeed(base int64, index int) int64 {
	z := uint64(base)*0x9e3779b97f4a7c15 + uint64(index+1)*0xbf58476d1ce4e5b9
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	// Keep it positive: seeds feed rand.NewSource, where sign carries
	// no extra entropy and negative values read poorly in logs.
	return int64(z &^ (1 << 63))
}

// Errs returns the errors of all failed jobs, in job order.
func Errs(results []Result) []error {
	var errs []error
	for i := range results {
		if results[i].Err != nil {
			errs = append(errs, fmt.Errorf("job %q: %w", results[i].Name, results[i].Err))
		}
	}
	return errs
}

// FirstErr returns the first failed job's error, or nil.
func FirstErr(results []Result) error {
	for i := range results {
		if results[i].Err != nil {
			return fmt.Errorf("sweep: job %q: %w", results[i].Name, results[i].Err)
		}
	}
	return nil
}

// WriteJSON emits results as an indented JSON array. Values must be
// JSON-marshalable (the attack result types are).
func WriteJSON(w io.Writer, results []Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}
