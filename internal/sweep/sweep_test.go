package sweep_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/sweep"
	"repro/internal/testutil"
)

func TestRunOrderAndValues(t *testing.T) {
	const n = 17
	var jobs []sweep.Job
	for i := 0; i < n; i++ {
		i := i
		jobs = append(jobs, sweep.Job{
			Name: fmt.Sprintf("job%d", i),
			Seed: sweep.DeriveSeed(1, i),
			Run: func(ctx context.Context, seed int64) (any, error) {
				return i * i, nil
			},
		})
	}
	var progressed atomic.Int64
	r := &sweep.Runner{Workers: 4, Progress: func(sweep.Result) { progressed.Add(1) }}
	results := r.Run(context.Background(), jobs)
	if len(results) != n {
		t.Fatalf("got %d results, want %d", len(results), n)
	}
	for i, res := range results {
		if res.Index != i || res.Name != fmt.Sprintf("job%d", i) {
			t.Fatalf("result %d out of order: %+v", i, res)
		}
		if res.Err != nil || res.Value.(int) != i*i {
			t.Fatalf("result %d wrong: %+v", i, res)
		}
	}
	if got := progressed.Load(); got != n {
		t.Fatalf("progress callback fired %d times, want %d", got, n)
	}
	if err := sweep.FirstErr(results); err != nil {
		t.Fatalf("unexpected sweep error: %v", err)
	}
}

func TestPanicIsolation(t *testing.T) {
	jobs := []sweep.Job{
		{Name: "ok1", Run: func(context.Context, int64) (any, error) { return "a", nil }},
		{Name: "boom", Run: func(context.Context, int64) (any, error) { panic("kaboom") }},
		{Name: "ok2", Run: func(context.Context, int64) (any, error) { return "b", nil }},
	}
	results := (&sweep.Runner{Workers: 2}).Run(context.Background(), jobs)
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("healthy jobs infected by panic: %+v", results)
	}
	if !results[1].Panic {
		t.Fatalf("panicking job not flagged: %+v", results[1])
	}
	var pe *sweep.PanicError
	if !errors.As(results[1].Err, &pe) {
		t.Fatalf("want PanicError, got %T", results[1].Err)
	}
	if pe.Value != "kaboom" || !strings.Contains(pe.Stack, "sweep_test") {
		t.Fatalf("panic payload lost: value=%v", pe.Value)
	}
	if errs := sweep.Errs(results); len(errs) != 1 {
		t.Fatalf("Errs found %d failures, want 1", len(errs))
	}
}

func TestPerJobTimeout(t *testing.T) {
	jobs := []sweep.Job{
		{Name: "fast", Run: func(ctx context.Context, _ int64) (any, error) { return "done", nil }},
		{
			Name:    "slow",
			Timeout: 30 * time.Millisecond,
			Run: func(ctx context.Context, _ int64) (any, error) {
				select {
				case <-ctx.Done():
					return nil, ctx.Err()
				case <-time.After(10 * time.Second):
					return "should not happen", nil
				}
			},
		},
	}
	start := time.Now()
	results := (&sweep.Runner{Workers: 2}).Run(context.Background(), jobs)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout did not bound the job: %v", elapsed)
	}
	if results[0].Err != nil {
		t.Fatalf("fast job failed: %v", results[0].Err)
	}
	if !errors.Is(results[1].Err, context.DeadlineExceeded) {
		t.Fatalf("slow job error = %v, want deadline exceeded", results[1].Err)
	}
}

func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var jobs []sweep.Job
	jobs = append(jobs, sweep.Job{
		Name: "blocker",
		Run: func(ctx context.Context, _ int64) (any, error) {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	for i := 0; i < 8; i++ {
		jobs = append(jobs, sweep.Job{
			Name: fmt.Sprintf("queued%d", i),
			Run:  func(context.Context, int64) (any, error) { return "ran", nil },
		})
	}
	go func() {
		<-started
		cancel()
	}()
	results := (&sweep.Runner{Workers: 1}).Run(ctx, jobs)
	if !errors.Is(results[0].Err, context.Canceled) {
		t.Fatalf("running job error = %v, want canceled", results[0].Err)
	}
	cancelled := 0
	for _, res := range results[1:] {
		if errors.Is(res.Err, context.Canceled) && res.Worker == -1 {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Fatal("no queued job reported sweep cancellation")
	}
}

func TestDeriveSeed(t *testing.T) {
	seen := make(map[int64]string)
	for base := int64(0); base < 50; base++ {
		for idx := 0; idx < 50; idx++ {
			s := sweep.DeriveSeed(base, idx)
			if s < 0 {
				t.Fatalf("DeriveSeed(%d,%d) = %d negative", base, idx, s)
			}
			key := fmt.Sprintf("%d/%d", base, idx)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: %s and %s both map to %d", prev, key, s)
			}
			seen[s] = key
			if s != sweep.DeriveSeed(base, idx) {
				t.Fatal("DeriveSeed not deterministic")
			}
		}
	}
}

// attackJob locks a fresh small circuit with one 2x2 RIL block under
// the job seed and SAT-attacks it, returning a schedule-independent
// summary (key string + iteration count).
func attackJob(orig *netlist.Netlist) func(ctx context.Context, seed int64) (any, error) {
	return func(ctx context.Context, seed int64) (any, error) {
		res, err := core.Lock(orig, core.Options{Blocks: 1, Size: core.Size2x2, Seed: seed})
		if err != nil {
			return nil, err
		}
		bound, err := res.ApplyKey(res.Key)
		if err != nil {
			return nil, err
		}
		oracle, err := attack.NewSimOracle(bound)
		if err != nil {
			return nil, err
		}
		ar, err := attack.SATAttack(res.Locked, res.KeyInputPos, oracle,
			attack.SATOptions{Timeout: time.Minute, Context: ctx})
		if err != nil {
			return nil, err
		}
		if ar.Status != attack.KeyFound {
			return nil, fmt.Errorf("attack did not converge: %v", ar)
		}
		key := make([]byte, len(ar.Key))
		for i, b := range ar.Key {
			key[i] = '0'
			if b {
				key[i] = '1'
			}
		}
		return fmt.Sprintf("key=%s iters=%d", key, ar.Iterations), nil
	}
}

func sweepCircuit(t *testing.T) *netlist.Netlist {
	t.Helper()
	return testutil.RandomCircuit(t, 10, 5, 40, 99)
}

// TestSweepDeterministicAcrossWorkerCounts runs the same 6 completing
// attack jobs sequentially and with 4 workers; every per-job outcome
// (recovered key, DIP count) must be identical, proving results do not
// depend on scheduling.
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	orig := sweepCircuit(t)
	mkJobs := func() []sweep.Job {
		var jobs []sweep.Job
		for i := 0; i < 6; i++ {
			jobs = append(jobs, sweep.Job{
				Name: fmt.Sprintf("attack%d", i),
				Seed: sweep.DeriveSeed(42, i),
				Run:  attackJob(orig),
			})
		}
		return jobs
	}
	seq := (&sweep.Runner{Workers: 1}).Run(context.Background(), mkJobs())
	par := (&sweep.Runner{Workers: 4}).Run(context.Background(), mkJobs())
	if err := sweep.FirstErr(seq); err != nil {
		t.Fatalf("sequential sweep failed: %v", err)
	}
	if err := sweep.FirstErr(par); err != nil {
		t.Fatalf("parallel sweep failed: %v", err)
	}
	for i := range seq {
		if !reflect.DeepEqual(seq[i].Value, par[i].Value) {
			t.Errorf("job %d differs across worker counts:\n  1 worker : %v\n  4 workers: %v",
				i, seq[i].Value, par[i].Value)
		}
	}
}

// TestConcurrentAttacksSharedOracle runs two SAT attacks through the
// sweep runner against the SAME SimOracle instance. Under -race this
// pins the oracle's thread safety (shared simulator buffers + query
// counter); functionally both attacks must still converge to correct
// keys.
func TestConcurrentAttacksSharedOracle(t *testing.T) {
	orig := sweepCircuit(t)
	res, err := core.Lock(orig, core.Options{Blocks: 1, Size: core.Size2x2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	bound, err := res.ApplyKey(res.Key)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := attack.NewSimOracle(bound)
	if err != nil {
		t.Fatal(err)
	}
	run := func(ctx context.Context, _ int64) (any, error) {
		ar, err := attack.SATAttack(res.Locked, res.KeyInputPos, oracle,
			attack.SATOptions{Timeout: time.Minute, Context: ctx})
		if err != nil {
			return nil, err
		}
		if ar.Status != attack.KeyFound {
			return nil, fmt.Errorf("attack did not converge: %v", ar)
		}
		recovered, err := res.ApplyKey(ar.Key)
		if err != nil {
			return nil, err
		}
		eq, _, err := netlist.Equivalent(bound, recovered, 10, 0, 1)
		if err != nil {
			return nil, err
		}
		if !eq {
			return nil, fmt.Errorf("recovered key functionally wrong")
		}
		return ar.Iterations, nil
	}
	jobs := []sweep.Job{
		{Name: "shared/a", Run: run},
		{Name: "shared/b", Run: run},
	}
	results := (&sweep.Runner{Workers: 2}).Run(context.Background(), jobs)
	if err := sweep.FirstErr(results); err != nil {
		t.Fatal(err)
	}
	if q := oracle.Queries(); q < results[0].Value.(int)+results[1].Value.(int) {
		t.Errorf("shared oracle counted %d queries, want at least %d",
			q, results[0].Value.(int)+results[1].Value.(int))
	}
}

// latencyOracle wraps a SimOracle and adds a fixed wall-clock delay
// per query, modelling the paper's actual threat setting: the oracle
// is a physical activated chip on a tester, and each query pays I/O
// latency. Attacks against such oracles are latency-bound, which is
// exactly the regime where the sweep's worker pool wins even when
// cores are scarce.
type latencyOracle struct {
	*attack.SimOracle
	delay time.Duration
}

func (o *latencyOracle) Query(in []bool) []bool {
	time.Sleep(o.delay)
	return o.SimOracle.Query(in)
}

// BenchmarkLatencyBoundSweep measures wall-clock for the same 8-job
// attack sweep at 1 and 4 workers against 10ms-latency oracles. Run:
//
//	go test -bench LatencyBoundSweep -benchtime 1x ./internal/sweep/
//
// The recorded numbers back EXPERIMENTS.md's speedup table.
func BenchmarkLatencyBoundSweep(b *testing.B) {
	orig, err := netlist.Random(netlist.RandomProfile{
		Name: "sweepbench", Inputs: 10, Outputs: 5, Gates: 40, Locality: 0.6,
	}, 99)
	if err != nil {
		b.Fatal(err)
	}
	mkJobs := func() []sweep.Job {
		var jobs []sweep.Job
		for i := 0; i < 8; i++ {
			jobs = append(jobs, sweep.Job{
				Name: fmt.Sprintf("attack%d", i),
				Seed: sweep.DeriveSeed(42, i),
				Run: func(ctx context.Context, seed int64) (any, error) {
					res, err := core.Lock(orig, core.Options{Blocks: 1, Size: core.Size2x2, Seed: seed})
					if err != nil {
						return nil, err
					}
					bound, err := res.ApplyKey(res.Key)
					if err != nil {
						return nil, err
					}
					sim, err := attack.NewSimOracle(bound)
					if err != nil {
						return nil, err
					}
					oracle := &latencyOracle{SimOracle: sim, delay: 10 * time.Millisecond}
					ar, err := attack.SATAttack(res.Locked, res.KeyInputPos, oracle,
						attack.SATOptions{Timeout: time.Minute, Context: ctx})
					if err != nil {
						return nil, err
					}
					if ar.Status != attack.KeyFound {
						return nil, fmt.Errorf("attack did not converge: %v", ar)
					}
					return ar.Iterations, nil
				},
			})
		}
		return jobs
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				results := (&sweep.Runner{Workers: workers}).Run(context.Background(), mkJobs())
				if err := sweep.FirstErr(results); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestNegativeTimeoutFailsFast: a negative Job.Timeout is a caller bug
// (the field's contract is 0 = inherit, positive = override) and must
// fail the sweep at entry instead of silently disabling the deadline.
func TestNegativeTimeoutFailsFast(t *testing.T) {
	var ran atomic.Int64
	jobs := []sweep.Job{
		{Name: "ok", Run: func(ctx context.Context, _ int64) (any, error) {
			ran.Add(1)
			return "x", nil
		}},
		{Name: "bad", Timeout: -time.Second, Run: func(ctx context.Context, _ int64) (any, error) {
			ran.Add(1)
			return "y", nil
		}},
	}
	results := (&sweep.Runner{Workers: 2}).Run(context.Background(), jobs)
	if ran.Load() != 0 {
		t.Fatalf("%d jobs ran despite the negative timeout", ran.Load())
	}
	for i := range results {
		if !errors.Is(results[i].Err, sweep.ErrNegativeTimeout) {
			t.Fatalf("result %d error = %v, want ErrNegativeTimeout", i, results[i].Err)
		}
		if !strings.Contains(results[i].Error, `"bad"`) {
			t.Fatalf("result %d error %q does not name the offending job", i, results[i].Error)
		}
	}

	res := (&sweep.Runner{}).RunOne(context.Background(), jobs[1])
	if !errors.Is(res.Err, sweep.ErrNegativeTimeout) || ran.Load() != 0 {
		t.Fatalf("RunOne error = %v (ran=%d), want ErrNegativeTimeout without running", res.Err, ran.Load())
	}
}

// TestRunOne: the daemon's single-job entry point keeps Run's
// semantics — deadline inheritance from the runner and panic
// isolation.
func TestRunOne(t *testing.T) {
	r := &sweep.Runner{Timeout: 50 * time.Millisecond}
	res := r.RunOne(context.Background(), sweep.Job{
		Name: "deadline",
		Run: func(ctx context.Context, _ int64) (any, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	if !errors.Is(res.Err, context.DeadlineExceeded) {
		t.Fatalf("deadline job error = %v", res.Err)
	}
	res = r.RunOne(context.Background(), sweep.Job{
		Name: "panics",
		Run:  func(ctx context.Context, _ int64) (any, error) { panic("boom") },
	})
	if !res.Panic || res.Err == nil {
		t.Fatalf("panic not isolated: %+v", res)
	}
	res = r.RunOne(context.Background(), sweep.Job{
		Name: "ok",
		Run:  func(ctx context.Context, _ int64) (any, error) { return 42, nil },
	})
	if res.Err != nil || res.Value != 42 {
		t.Fatalf("RunOne = %+v", res)
	}
}

// TestCancelledSweepNeverRecordsSuccess: a job that returns a nil
// error while the sweep context is already cancelled must be reported
// interrupted — a job that swallows its context may render a truncated
// run as an ordinary value, and recording that as done would make a
// checkpoint resume skip an unfinished job forever.
func TestCancelledSweepNeverRecordsSuccess(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	jobs := []sweep.Job{{
		Name: "truncated",
		Run: func(jctx context.Context, _ int64) (any, error) {
			close(started)
			<-jctx.Done()
			// A job that swallows its context returns a value that
			// looks like a legitimate ∞ cell.
			return "timeout-looking-result", nil
		},
	}}
	go func() {
		<-started
		cancel()
	}()
	results := (&sweep.Runner{Workers: 1}).Run(ctx, jobs)
	if results[0].Err == nil {
		t.Fatal("cancellation-truncated job reported success")
	}
	if !errors.Is(results[0].Err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", results[0].Err)
	}

	// A per-job deadline, by contrast, is a legitimate ∞ result and
	// must stay a success.
	res := (&sweep.Runner{}).RunOne(context.Background(), sweep.Job{
		Name:    "legit-timeout",
		Timeout: 20 * time.Millisecond,
		Run: func(jctx context.Context, _ int64) (any, error) {
			<-jctx.Done()
			return "inf", nil
		},
	})
	if res.Err != nil || res.Value != "inf" {
		t.Fatalf("per-job deadline result = %+v, want success", res)
	}
}
