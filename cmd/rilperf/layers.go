package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/attack"
	"repro/internal/cache"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/netlint"
	"repro/internal/netlist"
	"repro/internal/sat"
)

// probeInputs are the workload-sized inputs the layer probes run on.
// The probes time the layers the ops do not wrap in spans of their own
// (or reach only inside another package) by calling them directly.
type probeInputs struct {
	locked  []lockedCircuit                    // encode, bench I/O, simulation, lint and cache keys
	locks   []lockSpec                         // core.Lock calls like the workload's
	synth   []func() (*netlist.Netlist, error) // the workload's circuit synthesis
	payload []byte                             // a cache payload of the size the workload stores
}

type lockedCircuit struct {
	nl     *netlist.Netlist
	keyPos []int
	key    []bool
}

type lockSpec struct {
	orig *netlist.Netlist
	opt  core.Options
}

// lintGate is the netlint gate report.Table1 applies to every fresh
// lock; netlint.check_ms times the same four analyzers.
var lintGate = []*netlint.Analyzer{netlint.CombCycle, netlint.Undriven, netlint.KeyInfluence, netlint.ConstLUT}

// keyByName maps key input names to their bits, as netlint expects.
func keyByName(nl *netlist.Netlist, keyPos []int, key []bool) map[string]bool {
	m := make(map[string]bool, len(keyPos))
	for i, p := range keyPos {
		m[nl.Gates[nl.Inputs[p]].Name] = key[i]
	}
	return m
}

// lint runs the gate and turns any finding into an error.
func lint(nl *netlist.Netlist, keyPos []int, key []bool) error {
	diags, err := netlint.Check(nl, netlint.Options{Key: keyByName(nl, keyPos, key)}, lintGate...)
	if err != nil {
		return err
	}
	if len(diags) > 0 {
		return fmt.Errorf("netlint: %s", diags[0])
	}
	return nil
}

// timer accumulates repeated timings of one probe.
type timer struct {
	total time.Duration
	n     int
}

func (t *timer) time(f func() error) error {
	t0 := time.Now()
	err := f()
	t.total += time.Since(t0)
	t.n++
	return err
}

func (t *timer) ms() float64 {
	if t.n == 0 {
		return 0
	}
	return float64(t.total) / float64(t.n) / 1e6
}

// runProbes times each layer on the probe inputs, repeating every call
// enough times for a steady mean.
func runProbes(in probeInputs, dir string, quick bool) (map[string]metric, error) {
	reps, appends, simRuns := 5, 16, 2000
	if quick {
		reps, appends, simRuns = 1, 2, 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c, err := cache.Open(filepath.Join(dir, "cache"), cache.Options{})
	if err != nil {
		return nil, err
	}
	var encode, compile, stamp, write, parse, check, key, put, get, lock, synth, appendT timer
	var simWords int
	var simTime time.Duration
	rng := rand.New(rand.NewSource(1))
	for i, lc := range in.locked {
		for r := 0; r < reps; r++ {
			var tmpl *cnf.Template
			var text bytes.Buffer
			var k cache.Key
			steps := []struct {
				t *timer
				f func() error
			}{
				{&encode, func() error { _, err := cnf.NewEncoder().Encode(lc.nl, nil); return err }},
				{&compile, func() (err error) { tmpl, err = cnf.CompileTemplate(lc.nl); return err }},
				{&stamp, func() error {
					if _, ok := tmpl.Stamp(cnf.NewFormula(), nil); !ok {
						return fmt.Errorf("stamp: formula unsatisfiable")
					}
					return nil
				}},
				{&write, func() error { return lc.nl.WriteBench(&text) }},
				{&parse, func() error { _, err := netlist.ParseBench(lc.nl.Name, bytes.NewReader(text.Bytes())); return err }},
				{&check, func() error { return lint(lc.nl, lc.keyPos, lc.key) }},
				{&key, func() (err error) {
					k, err = cache.NewKey("rilperf-probe").Netlist("circuit", lc.nl).
						Options("cell", map[string]any{"index": i, "rep": r}).Key()
					return err
				}},
				{&put, func() error { return c.PutTimed(k, in.payload, 1) }},
				{&get, func() error {
					if _, ok := c.Get(k); !ok {
						return fmt.Errorf("cache probe: entry just stored is missing")
					}
					return nil
				}},
			}
			for _, s := range steps {
				if err := s.t.time(s.f); err != nil {
					return nil, fmt.Errorf("probe %s: %w", lc.nl.Name, err)
				}
			}
		}
		sim, err := netlist.NewSimulator(lc.nl)
		if err != nil {
			return nil, err
		}
		words := make([]uint64, len(lc.nl.Inputs))
		for j := range words {
			words[j] = rng.Uint64()
		}
		t0 := time.Now()
		for r := 0; r < simRuns; r++ {
			sim.Run(words)
		}
		simTime += time.Since(t0)
		simWords += simRuns
	}
	for _, l := range in.locks {
		for r := 0; r < reps; r++ {
			if err := lock.time(func() error { _, err := core.Lock(l.orig, l.opt); return err }); err != nil {
				return nil, fmt.Errorf("lock probe: %w", err)
			}
		}
	}
	for _, f := range in.synth {
		for r := 0; r < reps; r++ {
			if err := synth.time(func() error { _, err := f(); return err }); err != nil {
				return nil, fmt.Errorf("synthesis probe: %w", err)
			}
		}
	}
	if err := probeJournal(filepath.Join(dir, "probe.journal"), appends, &appendT); err != nil {
		return nil, err
	}
	out := map[string]metric{
		"cnf.encode_ms":            {encode.ms(), "ms"},
		"cnf.compile_ms":           {compile.ms(), "ms"},
		"cnf.stamp_us":             {stamp.ms() * 1e3, "us"},
		"netlist.write_bench_ms":   {write.ms(), "ms"},
		"netlist.parse_bench_ms":   {parse.ms(), "ms"},
		"netlist.sim_words_per_s":  {0, "1/s"},
		"netlint.check_ms":         {check.ms(), "ms"},
		"cache.key_ms":             {key.ms(), "ms"},
		"cache.put_ms":             {put.ms(), "ms"},
		"cache.get_us":             {get.ms() * 1e3, "us"},
		"core.lock_ms":             {lock.ms(), "ms"},
		"circuit.synth_ms":         {synth.ms(), "ms"},
		"attack.journal_append_ms": {appendT.ms(), "ms"},
	}
	if simTime > 0 {
		out["netlist.sim_words_per_s"] = metric{float64(simWords) / simTime.Seconds(), "1/s"}
	}
	return out, nil
}

// probeJournal times Journal.Append, which writes and fsyncs one DIP
// record, on a file in the run's scratch directory: the filesystem the
// daemon's state directory lives on.
func probeJournal(path string, n int, t *timer) error {
	j, _, err := attack.OpenJournal(path)
	if err != nil {
		return err
	}
	err = j.WriteHeader(attack.JournalHeader{Circuit: "probe", Inputs: 64, Outputs: 64, KeyBits: 64})
	dip := make([]byte, 64)
	for i := range dip {
		dip[i] = '0' + byte(i%2)
	}
	for i := 0; i < n && err == nil; i++ {
		err = t.time(func() error {
			return j.Append(attack.JournalRecord{Iteration: i + 1, DIP: string(dip), Oracle: string(dip), ElapsedMS: int64(i)})
		})
	}
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	return err
}

// recordSolver adds one attack's solver counters to the traced run.
// solve is the attack's wall time minus its oracle time, zero when the
// attack ran inside the daemon where it cannot be measured.
func recordSolver(c opCtx, st sat.Stats, solve time.Duration) {
	if c.tr == nil {
		return
	}
	for name, v := range map[string]int64{
		"sat.decisions": st.Decisions, "sat.propagations": st.Propagations, "sat.conflicts": st.Conflicts,
		"sat.restarts": st.Restarts, "sat.learnt": st.Learnt,
	} {
		c.tr.observe(name, float64(v))
	}
	if solve > 0 {
		c.tr.observe("sat.solve_s", solve.Seconds())
		c.tr.observe("sat.timed_propagations", float64(st.Propagations))
		c.tr.observe("sat.timed_conflicts", float64(st.Conflicts))
	}
}

// dipClock times one SATAttack through its Progress callback: the call
// to the first DIP is the attack's setup (base encoding, template
// compile and load), DIP to DIP the per-iteration cost, and the last
// DIP to the return the final UNSAT proof plus key extraction.
type dipClock struct {
	c     opCtx
	start time.Time
	last  time.Time
	dips  int
}

func newDIPClock(c opCtx) *dipClock { return &dipClock{c: c, start: time.Now()} }

func (d *dipClock) progress(attack.Progress) {
	now := time.Now()
	if d.dips == 0 {
		d.c.observe("attack.setup_ms", float64(now.Sub(d.start))/1e6)
	} else {
		d.c.observe("attack.dip_ms", float64(now.Sub(d.last))/1e6)
	}
	d.last = now
	d.dips++
}

// done records the final UNSAT phase and the attack's oracle share.
func (d *dipClock) done(o *timedOracle, r *attack.SATResult) {
	end := time.Now()
	last := d.last
	if d.dips == 0 {
		last = d.start
	}
	d.c.observe("sat.final_unsat_ms", float64(end.Sub(last))/1e6)
	recordAttack(d.c, end.Sub(d.start), o, r.Iterations)
	recordSolver(d.c, r.Solver, end.Sub(d.start)-o.busyTime())
}

// recordAttack adds one attack's DIP count and oracle use.
func recordAttack(c opCtx, wall time.Duration, o *timedOracle, dips int) {
	if c.tr == nil {
		return
	}
	c.observe("attack.dips", float64(dips))
	c.observe("attack.wall_ms", float64(wall)/1e6)
	c.observe("attack.oracle_busy_ms", float64(o.busyTime())/1e6)
	if o != nil {
		c.observe("attack.oracle_queries", float64(o.Queries()))
	}
}

// layerMetrics assembles the per-layer metrics BENCHMARK.json declares
// from the traced pass, the probes and the run-wide counters.
func layerMetrics(tr *tracer, p pass, probes map[string]metric, cs cache.Stats) map[string]metric {
	ops := float64(max(p.ops, 1))
	rate := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	m := map[string]metric{
		"sat.solve_calls":       {float64(p.solveCalls), "count"},
		"sat.decisions":         {tr.sum("sat.decisions"), "count"},
		"sat.propagations":      {tr.sum("sat.propagations"), "count"},
		"sat.conflicts":         {tr.sum("sat.conflicts"), "count"},
		"sat.restarts":          {tr.sum("sat.restarts"), "count"},
		"sat.learnt":            {tr.sum("sat.learnt"), "count"},
		"sat.props_per_s":       {rate(tr.sum("sat.timed_propagations"), tr.sum("sat.solve_s")), "1/s"},
		"sat.conflicts_per_s":   {rate(tr.sum("sat.timed_conflicts"), tr.sum("sat.solve_s")), "1/s"},
		"sat.final_unsat_ms":    {tr.mean("sat.final_unsat_ms"), "ms"},
		"attack.dips":           {tr.sum("attack.dips"), "count"},
		"attack.dip_ms":         {tr.mean("attack.dip_ms"), "ms"},
		"attack.setup_ms":       {tr.mean("attack.setup_ms"), "ms"},
		"attack.oracle_queries": {tr.sum("attack.oracle_queries"), "count"},
		"attack.oracle_busy_ms": {tr.mean("attack.oracle_busy_ms"), "ms"},
		"attack.oracle_share":   {rate(tr.sum("attack.oracle_busy_ms"), tr.sum("attack.wall_ms")), "ratio"},
		"attack.appsat_ms":      {tr.spanMeanMS("attack.AppSAT"), "ms"},
		"attack.equiv_ms":       {tr.spanMeanMS("attack.EquivalentSAT"), "ms"},
		"attack.onehot_ms":      {tr.spanMeanMS("attack.SATAttackOneHot"), "ms"},
		"attack.sensitize_ms":   {tr.spanMeanMS("attack.Sensitize"), "ms"},
		"cache.hits":            {float64(cs.Hits), "count"},
		"cache.misses":          {float64(cs.Misses), "count"},
		"cache.puts":            {float64(cs.Puts), "count"},
		"cache.invalidations":   {float64(cs.Invalidations), "count"},
		"cache.hit_ratio":       {rate(float64(cs.Hits), float64(cs.Hits+cs.Misses)), "ratio"},
		"report.table1_ms":      {tr.spanMeanMS("report.Table1"), "ms"},
		"report.table3_ms":      {tr.spanMeanMS("report.Table3"), "ms"},
		"serve.submit_ms":       {tr.spanMeanMS("serve.submit"), "ms"},
		"serve.queue_wait_ms":   {tr.spanMeanMS("serve.queue"), "ms"},
		"serve.run_ms":          {tr.spanMeanMS("serve.run"), "ms"},
		"serve.notify_ms":       {tr.spanMeanMS("serve.notify"), "ms"},
		"serve.cache_hits":      {tr.sum("serve.cache_hits"), "count"},
		"go.alloc_mb_per_op":    {float64(p.allocBytes) / 1e6 / ops, "MB"},
		"go.gc_cycles":          {float64(p.gcCycles), "count"},
		"go.gc_pause_ms":        {float64(p.gcPause) / 1e6, "ms"},
		"trace.ops":             {float64(p.ops), "count"},
	}
	for name, v := range probes {
		m[name] = v
	}
	return m
}
