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

// TestResumeConsultsCache is the issue's resume regression: a resumed
// sweep whose manifest covers only some jobs must serve the rest from
// the cache — zero live executions — and fold the cache hits back into
// the manifest so the next resume needs neither.
func TestResumeConsultsCache(t *testing.T) {
	c, err := cache.Open(t.TempDir(), cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ckptDir := t.TempDir()
	var ran atomic.Int64
	jobs := cacheJobs(t, 4, &ran)

	// Interrupted first run: only jobs 0-1 reach the manifest, but all
	// four results made it into the cache (e.g. from an earlier sweep
	// elsewhere sharing the cache directory).
	ckpt, err := NewCheckpoint(ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	partial := (&Runner{Workers: 1, Checkpoint: ckpt, Cache: c}).Run(context.Background(), jobs[:2])
	if err := FirstErr(partial); err != nil {
		t.Fatal(err)
	}
	full := (&Runner{Workers: 1, Cache: c}).Run(context.Background(), jobs[2:])
	if err := FirstErr(full); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 4 {
		t.Fatalf("setup executed %d jobs, want 4", ran.Load())
	}

	// The resumed sweep: manifest knows 0-1, cache knows 2-3.
	resumed, err := ResumeCheckpoint(ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	res := (&Runner{Workers: 2, Checkpoint: resumed, Cache: c}).Run(context.Background(), jobs)
	if err := FirstErr(res); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 4 {
		t.Fatalf("resume executed %d jobs live, want 0", ran.Load()-4)
	}
	for i := range res {
		wantResumed := i < 2
		if res[i].Resumed != wantResumed || res[i].Cached == wantResumed {
			t.Fatalf("job %d: resumed=%v cached=%v", i, res[i].Resumed, res[i].Cached)
		}
	}
	// Cache hits were recorded into the manifest: a further resume is
	// answered entirely by the checkpoint.
	again, err := ResumeCheckpoint(ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if _, ok := again.Completed(jobs[i].Name); !ok {
			t.Fatalf("job %d missing from manifest after cache-hit resume", i)
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
