package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/serve"
)

// The load mix: every load job is an attack on one of loadVariants
// locked c17 circuits (serve.MakeLoadTargets), submitted with a
// server-side deadline of loadJobTimeout and no_cache set, so every job
// runs live and the throughput is honest even when the daemon has a
// cache attached.
const (
	loadVariants   = 8
	loadJobTimeout = 30 * time.Second
)

// LoadOptions configures a load-test run.
type LoadOptions struct {
	Jobs        int // total jobs to submit
	Concurrency int // client goroutines (0 = 32)
}

// LoadReport summarizes a load-test run. The invariants the daemon
// must hold: Lost == 0 (every accepted job reached a terminal state
// and was never forgotten) and Duplicated == 0 (no two submissions
// shared an ID).
type LoadReport struct {
	Jobs       int     `json:"jobs"`
	Done       int     `json:"done"`
	Failed     int     `json:"failed"`
	CacheHits  int     `json:"cache_hits"`
	Lost       int     `json:"lost"`
	Duplicated int     `json:"duplicated"`
	WallSecs   float64 `json:"wall_seconds"`
	JobsPerSec float64 `json:"jobs_per_second"`
	P50MS      int64   `json:"latency_p50_ms"`
	P95MS      int64   `json:"latency_p95_ms"`
	MaxMS      int64   `json:"latency_max_ms"`
}

func (r *LoadReport) String() string {
	return fmt.Sprintf("%d jobs in %.2fs (%.1f jobs/s): %d done, %d failed, %d lost, %d duplicated, %d cache hits; latency p50=%dms p95=%dms max=%dms",
		r.Jobs, r.WallSecs, r.JobsPerSec, r.Done, r.Failed, r.Lost, r.Duplicated, r.CacheHits, r.P50MS, r.P95MS, r.MaxMS)
}

// runLoad drives the load harness against a running daemon.
func runLoad(ctx context.Context, addr string, opt LoadOptions) error {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	logger := log.New(os.Stderr, "rild: ", log.LstdFlags)
	rep, err := LoadTest(ctx, base, opt, logger.Printf)
	if err != nil {
		return err
	}
	fmt.Printf("rild: %s\n", rep)
	if rep.Lost > 0 || rep.Duplicated > 0 {
		return fmt.Errorf("load test lost %d and duplicated %d jobs", rep.Lost, rep.Duplicated)
	}
	if rep.Done == 0 {
		return fmt.Errorf("load test completed no jobs")
	}
	return nil
}

// LoadTest floods the daemon at base with opt.Jobs small attack jobs
// from opt.Concurrency client goroutines, waits for every job to
// finish, and verifies none were lost or duplicated.
func LoadTest(ctx context.Context, base string, opt LoadOptions, logf func(string, ...any)) (*LoadReport, error) {
	if opt.Concurrency <= 0 {
		opt.Concurrency = 32
	}
	targets, err := serve.MakeLoadTargets(loadVariants)
	if err != nil {
		return nil, err
	}
	client := &serve.Client{Base: base}

	type outcome struct {
		id      string
		view    *serve.JobView
		latency time.Duration
		err     error
	}
	outcomes := make([]outcome, opt.Jobs)
	var wg sync.WaitGroup
	next := make(chan int)
	start := time.Now()
	for w := 0; w < opt.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				t := targets[i%len(targets)]
				spec := &serve.JobSpec{
					Type:      serve.TypeAttack,
					TimeoutMS: loadJobTimeout.Milliseconds(),
					NoCache:   true,
					Attack:    &serve.AttackSpec{Bench: t.Bench, Key: t.Key},
				}
				t0 := time.Now()
				id, err := client.Submit(ctx, spec)
				if err != nil {
					outcomes[i] = outcome{err: err}
					continue
				}
				v, err := client.WaitDone(ctx, id)
				outcomes[i] = outcome{id: id, view: v, latency: time.Since(t0), err: err}
			}
		}()
	}
	for i := 0; i < opt.Jobs; i++ {
		select {
		case next <- i:
		case <-ctx.Done():
			close(next)
			wg.Wait()
			return nil, ctx.Err()
		}
		if (i+1)%500 == 0 {
			logf("load: %d/%d submitted", i+1, opt.Jobs)
		}
	}
	close(next)
	wg.Wait()

	rep := &LoadReport{Jobs: opt.Jobs, WallSecs: time.Since(start).Seconds()}
	seen := map[string]bool{}
	var latencies []time.Duration
	for i := range outcomes {
		o := &outcomes[i]
		if o.id != "" {
			if seen[o.id] {
				rep.Duplicated++
			}
			seen[o.id] = true
		}
		switch {
		case o.err != nil || o.view == nil:
			rep.Lost++
		case o.view.State == serve.StateDone:
			rep.Done++
			if o.view.Cached {
				rep.CacheHits++
			}
			latencies = append(latencies, o.latency)
		default:
			rep.Failed++
		}
	}
	if len(latencies) > 0 {
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		rep.P50MS = latencies[len(latencies)/2].Milliseconds()
		rep.P95MS = latencies[len(latencies)*95/100].Milliseconds()
		rep.MaxMS = latencies[len(latencies)-1].Milliseconds()
	}
	if rep.WallSecs > 0 {
		rep.JobsPerSec = float64(rep.Done+rep.Failed) / rep.WallSecs
	}
	return rep, nil
}
