package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/baselines"
	"repro/internal/netlist"
)

// Client is a minimal rild API client; cmd/rild's -load mode and the
// crash-safety tests drive the daemon through it.
type Client struct {
	Base string // e.g. "http://127.0.0.1:8372"
	HTTP *http.Client
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{Timeout: 30 * time.Second}
}

// Submit posts a job spec and returns the assigned ID.
func (c *Client) Submit(ctx context.Context, spec *JobSpec) (string, error) {
	raw, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+"/jobs", bytes.NewReader(raw))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http().Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("serve: submit: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return "", err
	}
	if out.ID == "" {
		return "", fmt.Errorf("serve: submit: response carries no id")
	}
	return out.ID, nil
}

// Job fetches one job's view.
func (c *Client) Job(ctx context.Context, id string) (*JobView, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/jobs/"+id, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("serve: job %s: %s: %s", id, resp.Status, bytes.TrimSpace(body))
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		return nil, err
	}
	return &v, nil
}

// Metrics fetches the raw /metrics text.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("serve: metrics: %s", resp.Status)
	}
	return string(body), nil
}

// terminalStates are the states WaitDone stops on.
func terminal(state string) bool {
	switch state {
	case StateDone, StateFailed, StateCancelled:
		return true
	}
	return false
}

// WaitDone polls a job until it reaches a terminal state. Transport
// errors are retried (the daemon may be restarting — resumed jobs
// finish after it comes back), so only ctx expiry gives up.
func (c *Client) WaitDone(ctx context.Context, id string) (*JobView, error) {
	backoff := 10 * time.Millisecond
	for {
		v, err := c.Job(ctx, id)
		if err == nil && terminal(v.State) {
			return v, nil
		}
		if ctx.Err() != nil {
			if err == nil {
				err = fmt.Errorf("job %s still %s", id, v.State)
			}
			return nil, fmt.Errorf("serve: wait %s: %w (%v)", id, ctx.Err(), err)
		}
		t := time.NewTimer(backoff)
		select {
		case <-ctx.Done():
			t.Stop()
		case <-t.C:
		}
		if backoff < 250*time.Millisecond {
			backoff *= 2
		}
	}
}

// c17Bench is ISCAS-85 c17 (6 NAND gates, public domain) inline, so
// the load generator needs no files on the daemon's host.
const c17Bench = `INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G16, G19)
G23 = NAND(G10, G16)
`

// LoadTarget is one pre-locked attack target for the load generator.
type LoadTarget struct {
	Bench string
	Key   string
}

// MakeLoadTargets locks c17 with XOR key gates under n distinct seeds,
// yielding n small attack targets (a c17-class SAT attack completes
// in milliseconds). keyBits 0 defaults to 5 (c17 has six gates; XOR
// key gates cannot outnumber them).
func MakeLoadTargets(n, keyBits int) ([]LoadTarget, error) {
	if keyBits <= 0 {
		keyBits = 5
	}
	orig, err := netlist.ParseBench("c17", strings.NewReader(c17Bench))
	if err != nil {
		return nil, err
	}
	targets := make([]LoadTarget, 0, n)
	for i := 0; i < n; i++ {
		l, err := baselines.XORLock(orig, keyBits, int64(i+1))
		if err != nil {
			return nil, err
		}
		var bench strings.Builder
		if err := l.Netlist.WriteBench(&bench); err != nil {
			return nil, err
		}
		key := strings.Join(l.Netlist.KeyLines(l.KeyPos, l.Key), "\n") + "\n"
		targets = append(targets, LoadTarget{Bench: bench.String(), Key: key})
	}
	return targets, nil
}

// LoadOptions configures a load-test run.
type LoadOptions struct {
	Jobs        int // total jobs to submit
	Concurrency int // client goroutines (0 = 32)
	Tenants     int // distinct tenant names (0 = 4)
	Variants    int // distinct locked circuits (0 = 8)
	KeyBits     int // key bits per variant (0 = 5)
	// JobTimeout bounds each submitted job server-side (0 = 30s).
	JobTimeout time.Duration
	// NoCache forces every job to run live, making throughput numbers
	// honest even when the daemon has a cache attached.
	NoCache bool
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

// LoadTest floods the daemon at base with opt.Jobs small attack jobs
// from opt.Concurrency client goroutines spread across opt.Tenants
// tenants and opt.Variants distinct circuits, waits for every job to
// finish, and verifies none were lost or duplicated.
func LoadTest(ctx context.Context, base string, opt LoadOptions, logf func(string, ...any)) (*LoadReport, error) {
	if opt.Jobs <= 0 {
		opt.Jobs = 1000
	}
	if opt.Concurrency <= 0 {
		opt.Concurrency = 32
	}
	if opt.Tenants <= 0 {
		opt.Tenants = 4
	}
	if opt.Variants <= 0 {
		opt.Variants = 8
	}
	if opt.JobTimeout <= 0 {
		opt.JobTimeout = 30 * time.Second
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	targets, err := MakeLoadTargets(opt.Variants, opt.KeyBits)
	if err != nil {
		return nil, err
	}
	client := &Client{Base: base}

	type outcome struct {
		id      string
		view    *JobView
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
				spec := &JobSpec{
					Type:      TypeAttack,
					Tenant:    fmt.Sprintf("tenant-%d", i%opt.Tenants),
					TimeoutMS: opt.JobTimeout.Milliseconds(),
					NoCache:   opt.NoCache,
					Attack:    &AttackSpec{Bench: t.Bench, Key: t.Key},
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
		case o.view.State == StateDone:
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
