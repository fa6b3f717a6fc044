package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
)

type cellPayload struct {
	N       int    `json:"n"`
	Verdict string `json:"verdict"`
}

// cacheJobs builds n keyed jobs whose Run increments ran.
func cacheJobs(t *testing.T, n int, ran *atomic.Int64) []Job {
	t.Helper()
	jobs := make([]Job, n)
	for i := range jobs {
		i := i
		k, err := cache.NewKey("sweep-test").Int("cell", int64(i)).Key()
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = Job{
			Name:     fmt.Sprintf("job%d", i),
			CacheKey: k,
			Run: func(ctx context.Context) (any, error) {
				ran.Add(1)
				return &cellPayload{N: i, Verdict: "done"}, nil
			},
		}
	}
	return jobs
}

// TestRunnerCacheWarm: a second sweep over the same keyed jobs runs
// nothing — every result is served from the cache with the original
// payload.
func TestRunnerCacheWarm(t *testing.T) {
	c, err := cache.Open(t.TempDir(), cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int64
	jobs := cacheJobs(t, 4, &ran)

	cold := (&Runner{Workers: 2, Cache: c}).Run(context.Background(), jobs)
	if err := FirstErr(cold); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 4 {
		t.Fatalf("cold run executed %d jobs, want 4", ran.Load())
	}
	if s := c.Stats(); s.Puts != 4 {
		t.Fatalf("cold run stored %d entries, want 4: %+v", s.Puts, s)
	}

	warm := (&Runner{Workers: 2, Cache: c}).Run(context.Background(), jobs)
	if err := FirstErr(warm); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 4 {
		t.Fatalf("warm run executed %d extra jobs, want 0", ran.Load()-4)
	}
	for i := range warm {
		if !warm[i].Cached {
			t.Fatalf("warm job %d not marked cached", i)
		}
		raw, ok := warm[i].Value.(json.RawMessage)
		if !ok {
			t.Fatalf("warm job %d value is %T", i, warm[i].Value)
		}
		var p cellPayload
		if err := json.Unmarshal(raw, &p); err != nil {
			t.Fatal(err)
		}
		if p.N != i || p.Verdict != "done" {
			t.Fatalf("warm job %d payload %+v", i, p)
		}
	}

	// Jobs without a key always run.
	var keyless atomic.Int64
	nk := []Job{{Name: "nokey", Run: func(ctx context.Context) (any, error) {
		keyless.Add(1)
		return "x", nil
	}}}
	for r := 0; r < 2; r++ {
		if err := FirstErr((&Runner{Cache: c}).Run(context.Background(), nk)); err != nil {
			t.Fatal(err)
		}
	}
	if keyless.Load() != 2 {
		t.Fatalf("keyless job ran %d times, want 2", keyless.Load())
	}
}

// TestRunnerCacheSkipsFailures: failed jobs are never stored, so the
// next run retries them.
func TestRunnerCacheSkipsFailures(t *testing.T) {
	c, err := cache.Open(t.TempDir(), cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	k, err := cache.NewKey("sweep-test").Int("fail", 1).Key()
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int64
	jobs := []Job{{Name: "flaky", CacheKey: k,
		Run: func(ctx context.Context) (any, error) {
			ran.Add(1)
			return nil, fmt.Errorf("boom")
		}}}
	for r := 0; r < 2; r++ {
		res := (&Runner{Cache: c}).Run(context.Background(), jobs)
		if res[0].Err == nil {
			t.Fatal("failed job reported success")
		}
	}
	if ran.Load() != 2 {
		t.Fatalf("failed job ran %d times, want 2 (failures must not cache)", ran.Load())
	}
}

// TestCheckpointResumeAfterCancel models kill-and-resume at the sweep
// layer, where the cache is the record of finished work. A cached sweep
// cancelled partway and re-run against the same cache serves the jobs
// that finished before the cancel, and runs the interrupted job again:
// the value it returned after the cancel never reached the cache.
func TestCheckpointResumeAfterCancel(t *testing.T) {
	c, err := cache.Open(t.TempDir(), cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n, killed = 8, 2
	var ran atomic.Int64
	jobs := cacheJobs(t, n, &ran)
	truncated := jobs[killed]
	truncated.Run = func(jctx context.Context) (any, error) {
		ran.Add(1)
		cancel() // the kill arrives while the sweep is mid-flight
		<-jctx.Done()
		// A job that swallows its context returns a truncated value.
		return &cellPayload{N: killed, Verdict: "truncated"}, nil
	}
	first := append([]Job(nil), jobs...)
	first[killed] = truncated
	// A job the pool hands out after the cancel is interrupted too.
	res := (&Runner{Workers: 1, Cache: c}).Run(ctx, first)
	for i := range res {
		if (res[i].Err == nil) != (i < killed) {
			t.Fatalf("cancelled sweep job %d: err=%v", i, res[i].Err)
		}
	}
	if _, _, ok := c.GetTimed(jobs[killed].CacheKey); ok {
		t.Fatal("the interrupted job's truncated value was cached")
	}

	ran.Store(0)
	again := (&Runner{Workers: 1, Cache: c}).Run(context.Background(), jobs)
	if err := FirstErr(again); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != n-killed {
		t.Fatalf("re-run executed %d jobs, want the %d that did not finish", ran.Load(), n-killed)
	}
	for i := range again {
		if again[i].Cached != (i < killed) {
			t.Fatalf("re-run job %d: cached=%v", i, again[i].Cached)
		}
	}
	if p := again[killed].Value.(*cellPayload); p.Verdict != "done" {
		t.Fatalf("interrupted job re-ran to %+v, want a done payload", p)
	}
}

// TestResumeConsultsCache: a resumed sweep consults the cache for every
// job, whichever earlier sweep finished it. Two partial sweeps sharing
// one cache directory finish jobs 0-1 and 2-3; the resumed sweep over
// all four runs none of them live and serves each one's original value.
func TestResumeConsultsCache(t *testing.T) {
	c, err := cache.Open(t.TempDir(), cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int64
	jobs := cacheJobs(t, 4, &ran)
	for _, part := range [][]Job{jobs[:2], jobs[2:]} {
		if err := FirstErr((&Runner{Workers: 1, Cache: c}).Run(context.Background(), part)); err != nil {
			t.Fatal(err)
		}
	}
	if ran.Load() != 4 {
		t.Fatalf("partial sweeps executed %d jobs, want 4", ran.Load())
	}

	res := (&Runner{Workers: 2, Cache: c}).Run(context.Background(), jobs)
	if err := FirstErr(res); err != nil {
		t.Fatal(err)
	}
	if live := ran.Load() - 4; live != 0 {
		t.Fatalf("resume executed %d jobs live, want 0", live)
	}
	for i := range res {
		if !res[i].Cached {
			t.Fatalf("job %d not served from the cache", i)
		}
		raw, ok := res[i].Value.(json.RawMessage)
		if !ok {
			t.Fatalf("job %d value is %T", i, res[i].Value)
		}
		var p cellPayload
		if err := json.Unmarshal(raw, &p); err != nil {
			t.Fatal(err)
		}
		if p.N != i || p.Verdict != "done" {
			t.Fatalf("job %d resumed to %+v, want its original payload", i, p)
		}
	}
}

// TestRunnerCacheWarmKeepsSeconds: a cache hit must report the
// original run's wall clock, not 0 — warm SATRuntimeTable/Table I
// cells and JSON sweep results show real runtimes (the schema-2 entry
// stores the seconds alongside the payload).
func TestRunnerCacheWarmKeepsSeconds(t *testing.T) {
	c, err := cache.Open(t.TempDir(), cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	k, err := cache.NewKey("sweep-test").Int("timed", 1).Key()
	if err != nil {
		t.Fatal(err)
	}
	jobs := []Job{{
		Name:     "slow",
		CacheKey: k,
		Run: func(ctx context.Context) (any, error) {
			time.Sleep(30 * time.Millisecond)
			return &cellPayload{N: 1, Verdict: "done"}, nil
		},
	}}
	cold := (&Runner{Cache: c}).Run(context.Background(), jobs)
	if err := FirstErr(cold); err != nil {
		t.Fatal(err)
	}
	if cold[0].Seconds < 0.03 {
		t.Fatalf("cold Seconds = %v, want >= 0.03", cold[0].Seconds)
	}
	warm := (&Runner{Cache: c}).Run(context.Background(), jobs)
	if err := FirstErr(warm); err != nil {
		t.Fatal(err)
	}
	if !warm[0].Cached {
		t.Fatal("warm job not served from cache")
	}
	if warm[0].Seconds != cold[0].Seconds {
		t.Fatalf("warm Seconds = %v, want the original %v", warm[0].Seconds, cold[0].Seconds)
	}
}
