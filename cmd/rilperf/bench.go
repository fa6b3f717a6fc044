package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/sat"
)

// workload is one seeded input set the benchmark runs. Every op is one
// latency sample; ops run in a closed loop of rounds, each round one op
// per stream, with runtime.GC() between rounds outside the timed region.
type workload struct {
	name    string
	streams int
	// sample is the op count a traced run traces, so the per-layer
	// counts cover the same ops on every run of a seed.
	sample int
	setup  func(e env) (instance, error)
}

// env is what a workload's setup receives: the seed its inputs derive
// from and a fresh scratch directory.
type env struct {
	seed  int64
	dir   string
	quick bool
}

// instance is a set-up workload.
type instance interface {
	// do runs op c.op and returns the check of its output, which the
	// runner calls outside the timed region.
	do(c opCtx) (check func() error, err error)
	// finish checks what spans the whole run, after the last op.
	finish() error
	// probe returns the workload-sized inputs the layer probes time.
	probe() probeInputs
	// cache is the result cache the ops read and write, or nil.
	cache() *cache.Cache
	close() error
}

var workloads = []workload{table1Workload, variantsWorkload, tablesWorkload, rildWorkload}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config is one child run.
type config struct {
	workload string
	seed     int64
	window   time.Duration // how long the untraced run measures
	traced   bool
	spans    string // span file of a traced run
	dir      string // this run's scratch directory
	quick    bool
}

const (
	// setupRepeats is how many times an untraced run sets its workload
	// up; setup_s is the median.
	setupRepeats = 3
	// minOps keeps an untraced run going past its window on a slow host
	// until ten ops lie beyond p90.
	minOps = 100
)

// pass is the outcome of running ops against one instance.
type pass struct {
	latency []time.Duration // per op, in op order
	busy    time.Duration   // summed wall time of the rounds
	ops     int
	failed  int
	errs    []string
	// Solver calls and Go runtime deltas summed over the rounds, the
	// forced GCs between them excluded.
	solveCalls int64
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
}

// runPass runs untraced rounds until the window has closed and minOps
// ops have run, or until maxOps ops have run when maxOps > 0.
func runPass(inst instance, streams int, window time.Duration, minOps, maxOps int) pass {
	var p pass
	start := time.Now()
	for round := 0; (time.Since(start) < window || p.ops < minOps) && (maxOps <= 0 || p.ops < maxOps); round++ {
		p.round(inst, streams, nil, round)
	}
	return p
}

// round runs one op per stream, concurrently, with a GC before them and
// their checks after them, both outside the timed region.
func (p *pass) round(inst instance, streams int, tr *tracer, round int) {
	checks := make([]func() error, streams)
	errs := make([]error, streams)
	lat := make([]time.Duration, streams)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	calls := sat.SolveCallsTotal()
	t0 := time.Now()
	if streams == 1 {
		lat[0], checks[0], errs[0] = runOp(inst, tr, round)
	} else {
		var wg sync.WaitGroup
		for s := 0; s < streams; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				lat[s], checks[s], errs[s] = runOp(inst, tr, round*streams+s)
			}(s)
		}
		wg.Wait()
	}
	p.busy += time.Since(t0)
	p.solveCalls += sat.SolveCallsTotal() - calls
	runtime.ReadMemStats(&after)
	p.allocBytes += after.TotalAlloc - before.TotalAlloc
	p.gcCycles += (after.NumGC - after.NumForcedGC) - (before.NumGC - before.NumForcedGC)
	p.gcPause += time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	for s := 0; s < streams; s++ {
		p.ops++
		p.latency = append(p.latency, lat[s])
		err := errs[s]
		if err == nil && checks[s] != nil {
			err = checks[s]()
		}
		if err != nil {
			p.fail(fmt.Errorf("op %d: %w", round*streams+s, err))
		}
	}
}

func (p *pass) fail(err error) {
	p.failed++
	if len(p.errs) < 5 {
		p.errs = append(p.errs, err.Error())
	}
}

// runOp times one op under its root span.
func runOp(inst instance, tr *tracer, i int) (time.Duration, func() error, error) {
	c, end := opCtx{tr: tr, op: i}.span("op")
	t0 := time.Now()
	check, err := inst.do(c)
	d := time.Since(t0)
	end()
	return d, check, err
}

// setUp runs a workload's setup in a fresh directory, after a GC so
// every repetition starts from the same heap.
func setUp(w workload, cfg config, name string) (instance, time.Duration, error) {
	dir := filepath.Join(cfg.dir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	runtime.GC()
	t0 := time.Now()
	inst, err := w.setup(env{seed: cfg.seed, dir: dir, quick: cfg.quick})
	d := time.Since(t0)
	if err != nil {
		return nil, 0, fmt.Errorf("%s setup: %w", w.name, err)
	}
	return inst, d, nil
}

// measure runs one workload in this process and returns its record. An
// untraced run reports the end-to-end metrics, a traced run the
// per-layer metrics.
func measure(cfg config, log io.Writer) (*record, error) {
	w, ok := workloadByName(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.traced {
		return measureTraced(w, cfg, log)
	}
	repeats := setupRepeats
	if cfg.quick {
		repeats = 1
	}
	var setups []float64
	var inst instance
	for k := 0; k < repeats; k++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
		}
		var d time.Duration
		var err error
		inst, d, err = setUp(w, cfg, fmt.Sprintf("setup%d", k))
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	fmt.Fprintf(log, "rilperf: %s: set up in %.3fs (median of %d), measuring for %v\n",
		w.name, median(setups), len(setups), cfg.window)
	p := runPass(inst, w.streams, cfg.window, minOps, quickOps(w, cfg))
	if err := inst.finish(); err != nil {
		p.fail(err)
	}
	if err := inst.close(); err != nil {
		return nil, err
	}
	rec := newRecord(w, cfg, []pass{p})
	lat := sortedMS(p.latency)
	rec.Metrics = map[string]metric{
		"throughput_ops_s": {float64(p.ops) / p.busy.Seconds(), "1/s"},
		"latency_p50_ms":   {quantile(lat, 0.50), "ms"},
		"latency_p90_ms":   {quantile(lat, 0.90), "ms"},
		"setup_s":          {median(setups), "s"},
	}
	rec.Extra["latency_p99_ms"] = metric{quantile(lat, 0.99), "ms"}
	rec.Extra["ops"] = metric{float64(p.ops), "count"}
	rec.Extra["timed_s"] = metric{p.busy.Seconds(), "s"}
	return rec, nil
}

// measureTraced runs the traced sample on two fresh instances, one
// untraced as the reference and one traced, alternating round by round
// so drift in the host's speed reaches both alike. The per-layer
// metrics come from the traced rounds plus the layer probes; the
// tracing overhead is the traced rounds' op latency over the
// reference's, on the same ops.
func measureTraced(w workload, cfg config, log io.Writer) (*record, error) {
	sample := w.sample
	if cfg.quick {
		sample = quickOps(w, cfg)
	}
	ref, _, err := setUp(w, cfg, "reference")
	if err != nil {
		return nil, err
	}
	inst, _, err := setUp(w, cfg, "traced")
	if err != nil {
		return nil, errors.Join(err, ref.close())
	}
	var c0 cache.Stats
	if c := inst.cache(); c != nil {
		c0 = c.Stats()
	}
	tr := newTracer()
	var rp, p pass
	start := time.Now()
	for round := 0; time.Since(start) < cfg.window && p.ops < sample; round++ {
		rp.round(ref, w.streams, nil, round)
		p.round(inst, w.streams, tr, round)
	}
	var cs cache.Stats
	if c := inst.cache(); c != nil {
		cs = c.Stats()
		cs.Hits, cs.Misses, cs.Puts, cs.Invalidations = cs.Hits-c0.Hits, cs.Misses-c0.Misses, cs.Puts-c0.Puts, cs.Invalidations-c0.Invalidations
	}
	for _, run := range []struct {
		inst instance
		p    *pass
	}{{ref, &rp}, {inst, &p}} {
		if err := run.inst.finish(); err != nil {
			run.p.fail(err)
		}
	}
	fmt.Fprintf(log, "rilperf: %s: traced %d ops, probing layers\n", w.name, p.ops)
	pr, err := runProbes(inst.probe(), filepath.Join(cfg.dir, "probe"), cfg.quick)
	if err = errors.Join(err, ref.close(), inst.close()); err != nil {
		return nil, err
	}
	if err := tr.writeSpans(cfg.spans); err != nil {
		return nil, err
	}
	rec := newRecord(w, cfg, []pass{rp, p})
	rec.Metrics = layerMetrics(tr, p, pr, cs)
	rec.Metrics["trace.overhead_pct"] = metric{overheadPct(rp.latency, p.latency), "%"}
	rec.Extra["trace.spans"] = metric{float64(len(tr.spans)), "count"}
	for name, d := range tr.selfTimes() {
		rec.Extra["self."+name+"_ms_per_op"] = metric{float64(d) / 1e6 / float64(max(p.ops, 1)), "ms"}
	}
	return rec, nil
}

// quickOps caps a quick run at two rounds; other runs are bounded by
// their window alone (0).
func quickOps(w workload, cfg config) int {
	if cfg.quick {
		return 2 * w.streams
	}
	return 0
}

// overheadPct compares the mean op latency of two passes over the ops
// both completed.
func overheadPct(ref, traced []time.Duration) float64 {
	n := min(len(ref), len(traced))
	var a, b time.Duration
	for i := 0; i < n; i++ {
		a += ref[i]
		b += traced[i]
	}
	if a == 0 {
		return 0
	}
	return (float64(b)/float64(a) - 1) * 100
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one run's result. Metrics holds the metrics BENCHMARK.json
// declares for the run's mode; Extra holds the rest of what the run
// measured (error rate, p99, self times).
type record struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Extra     map[string]metric `json:"extra,omitempty"`
	Errors    []string          `json:"errors,omitempty"`
}

func newRecord(w workload, cfg config, passes []pass) *record {
	rec := &record{Workload: w.name, Seed: cfg.seed, Traced: cfg.traced, Extra: map[string]metric{}}
	for _, p := range passes {
		rec.Attempted += p.ops
		rec.Failed += p.failed
		rec.Errors = append(rec.Errors, p.errs...)
	}
	rec.Correct = rec.Failed == 0 && rec.Attempted > 0
	rate := 1.0
	if rec.Attempted > 0 {
		rate = float64(rec.Failed) / float64(rec.Attempted)
	}
	rec.Extra["error_rate"] = metric{rate, "ratio"}
	return rec
}

// sortedMS returns the latencies in milliseconds, ascending.
func sortedMS(lat []time.Duration) []float64 {
	out := make([]float64, len(lat))
	for i, d := range lat {
		out[i] = float64(d) / 1e6
	}
	sort.Float64s(out)
	return out
}

// quantile is the nearest-rank q-quantile of ascending values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(float64(len(sorted))*q)) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
