package main

import (
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/baselines"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/golint"
	"repro/internal/netlist"
)

// TestMain lets spawn start this test binary as a benchmark child.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	// Under -race every child would otherwise sleep a second at exit.
	if err := os.Setenv("GORACE", strings.TrimSpace(os.Getenv("GORACE")+" atexit_sleep_ms=0")); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

const benchmarkJSON = "../../BENCHMARK.json"

// TestQuickRunsEmitDeclaredMetrics runs every workload untraced and
// traced in quick mode, each in a child process as the benchmark does,
// and checks each run emits exactly the metrics BENCHMARK.json declares
// for its mode, with their units, and no failed op.
func TestQuickRunsEmitDeclaredMetrics(t *testing.T) {
	def, err := readBenchDef(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	e2e, layer := map[string]string{}, map[string]string{}
	for _, m := range def.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range def.PerLayer {
		layer[m.Name] = m.Unit
	}
	work := t.TempDir()
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			for _, traced := range []bool{false, true} {
				cfg := config{workload: w.name, seed: 3, window: 5 * time.Second, traced: traced,
					spans: filepath.Join(work, w.name+".spans.jsonl")}
				rec, err := spawn(cfg, work, true, io.Discard)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if !rec.Correct || rec.Failed != 0 || rec.Extra["error_rate"].Value != 0 {
					t.Errorf("traced=%v: correct=%v failed=%d/%d: %v", traced, rec.Correct, rec.Failed, rec.Attempted, rec.Errors)
				}
				want := e2e
				if traced {
					want = layer
				}
				got := map[string]string{}
				for name, m := range rec.Metrics {
					got[name] = m.Unit
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("traced=%v: metrics\n got %v\nwant %v", traced, got, want)
				}
				if traced {
					if st, err := os.Stat(cfg.spans); err != nil || st.Size() == 0 {
						t.Errorf("span file: %v", err)
					}
				}
			}
		})
	}
}

// keyFlipper attacks one small lock per op and, when flip is set,
// corrupts the recovered key before the check sees it.
type keyFlipper struct {
	flip       bool
	res        *core.Result
	functional *attack.SimOracle
}

func (k *keyFlipper) do(c opCtx) (func() error, error) {
	sim, err := boundOracle(k.res.Locked, k.res.KeyInputPos, k.res.Key)
	if err != nil {
		return nil, err
	}
	r, err := satAttack(c, k.res.Locked, k.res.KeyInputPos, sim)
	if err != nil {
		return nil, err
	}
	if k.flip {
		r.Key[0] = !r.Key[0]
	}
	return func() error {
		return verifyKey(k.res.Locked, k.res.KeyInputPos, r.Status, r.Key, k.functional, 1, 0)
	}, nil
}

func (k *keyFlipper) finish() error       { return nil }
func (k *keyFlipper) probe() probeInputs  { return probeInputs{} }
func (k *keyFlipper) cache() *cache.Cache { return nil }
func (k *keyFlipper) close() error        { return nil }

// TestFlippedKeyIsAnError checks the correctness gate end to end: a
// recovered key with one bit flipped fails its check, and the runner
// counts the op in error_rate.
func TestFlippedKeyIsAnError(t *testing.T) {
	orig, err := c7552()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Lock(orig, core.Options{Blocks: 1, Size: core.Size2x2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	functional, err := attack.NewSimOracle(orig)
	if err != nil {
		t.Fatal(err)
	}
	for _, flip := range []bool{false, true} {
		inst := &keyFlipper{flip: flip, res: res, functional: functional}
		p := runPass(inst, 1, time.Minute, 0, 2)
		rec := newRecord(workload{name: "flip"}, config{}, []pass{p})
		wantFailed, wantRate := 0, 0.0
		if flip {
			wantFailed, wantRate = 2, 1
		}
		if p.ops != 2 || p.failed != wantFailed || rec.Extra["error_rate"].Value != wantRate || rec.Correct == flip {
			t.Errorf("flip=%v: %d/%d ops failed, error_rate %v, correct %v: %v",
				flip, p.failed, p.ops, rec.Extra["error_rate"].Value, rec.Correct, p.errs)
		}
	}
}

// TestTimedOracleMatchesBare checks the traced run's oracle changes
// nothing the attacks compute: AppSAT and sensitization, which query
// through attack.AsBatch, get identical keys, query counts and key
// error rates with the timing wrapper and without, and the wrapper sees
// AppSAT's 64-pattern queries as such.
func TestTimedOracleMatchesBare(t *testing.T) {
	orig, err := c7552()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Lock(orig, core.Options{Blocks: 3, Size: core.Size2x2, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	xorig, err := netlist.Random(xoredProfile, 22)
	if err != nil {
		t.Fatal(err)
	}
	xl, err := baselines.XORLock(xorig, variantsXORKeys, 23)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		key       []bool
		queries   int
		errorRate float64
	}
	attacks := map[string]func(o attack.Oracle) (outcome, error){
		"appsat": func(o attack.Oracle) (outcome, error) {
			opt := attack.DefaultAppSAT()
			opt.Seed = 21
			r, err := attack.AppSAT(res.Locked, res.KeyInputPos, o, opt)
			if err != nil {
				return outcome{}, err
			}
			fo, err := attack.NewSimOracle(orig)
			if err != nil {
				return outcome{}, err
			}
			e, err := attack.VerifyKey(res.Locked, res.KeyInputPos, r.Key, fo, 16, 21)
			return outcome{r.Key, o.Queries(), e}, err
		},
		"sensitize": func(o attack.Oracle) (outcome, error) {
			r, err := attack.Sensitize(xl.Netlist, xl.KeyPos, o, 16, time.Minute)
			if err != nil {
				return outcome{}, err
			}
			return outcome{append(r.Key, r.Mask...), o.Queries(), float64(r.Resolved)}, nil
		},
	}
	oracles := map[string]func() (*attack.SimOracle, error){
		"appsat":    func() (*attack.SimOracle, error) { return boundOracle(res.Locked, res.KeyInputPos, res.Key) },
		"sensitize": func() (*attack.SimOracle, error) { return boundOracle(xl.Netlist, xl.KeyPos, xl.Key) },
	}
	for name, run := range attacks {
		bare, err := oracles[name]()
		if err != nil {
			t.Fatal(err)
		}
		want, err := run(bare)
		if err != nil {
			t.Fatal(err)
		}
		inner, err := oracles[name]()
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		o, timed := opCtx{tr: tr}.oracle(inner)
		got, err := run(o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) || inner.Queries() != bare.Queries() {
			t.Errorf("%s: wrapped oracle gives %+v (%d queries), bare %+v (%d queries)", name, got, inner.Queries(), want, bare.Queries())
		}
		words := 0
		for _, s := range tr.spans {
			if s.Name == "oracle.QueryWords" {
				words++
			}
		}
		// AppSAT's error estimates always come in full 64-pattern words;
		// sensitization batches only when it has 64 golden patterns.
		if (name == "appsat" && words == 0) || timed.busyTime() <= 0 {
			t.Errorf("%s: wrapper saw %d batched queries, busy %v", name, words, timed.busyTime())
		}
	}
}

// TestRilvetClean runs the repository's Go lint suite over this
// package, with the time-seed rule applied here too: no wall-clock
// seeds, no unaccounted goroutines, no unchecked durable writes.
func TestRilvetClean(t *testing.T) {
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	opts := golint.Options{DeterminismPkgs: []string{"rilperf"}}
	pkg, err := golint.NewLoader(opts).LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := golint.Run(pkg, opts, golint.All()...)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Unsuppressed() {
		t.Errorf("rilvet: %s", f)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(v, n=4).
	for _, c := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 2.5, 7.25, 1}, [3]float64{1.375, 4.875, 9.3125}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, [3]float64{2, 4, 7}},
	} {
		if got := quartiles(c.v); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	runs := func(center, step float64) []sample {
		var s []sample
		for i := 0; i < 10; i++ {
			s = append(s, sample{int64(i + 1), center + step*float64(i%5-2)})
		}
		return s
	}
	base := runs(100, 1)
	for _, c := range []struct {
		name   string
		base   []sample
		next   []sample
		higher bool
		want   string
	}{
		{"faster", base, runs(80, 1), false, "improved"},
		{"slower", base, runs(120, 1), false, "worse"},
		{"same", base, runs(101, 1), false, "unchanged"},
		{"throughput up", base, runs(120, 1), true, "improved"},
		{"noisy base", runs(100, 30), runs(95, 30), false, "unresolved"},
		{"noisy base, clear win", runs(100, 30), runs(10, 1), false, "improved"},
		{"one run", base[:1], runs(80, 1), false, "unresolved"},
	} {
		if got := verdict(c.base, c.next, 0.1, c.higher); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
