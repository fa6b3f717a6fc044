package main

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/attack"
	"repro/internal/cache"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/report"
	"repro/internal/sat"
	"repro/internal/sweep"
)

// tables-warm: the cache read path. Setup is the cold fill of Table I
// and Table III into a fresh result cache; each op regenerates both
// tables warm on one sweep worker, which must render byte-identical to
// the cold fill while issuing no oracle query and no solver call. Both
// tables run at scale
// 0.1 with a 25 ms attack budget so the cold fill, which every untraced
// run repeats three times for setup_s, stays near two seconds; the warm
// op's work (circuit synthesis, canonical keys, cache reads) does not
// depend on the budget.
var tablesWorkload = workload{
	name:    "tables-warm",
	streams: 1,
	sample:  30,
	setup:   setupTables,
}

const (
	tablesScale  = 0.1
	tablesBudget = 25 * time.Millisecond
	// tablesCells is the cell count of both tables: 10 block counts × 3
	// sizes in Table I, 10 circuits × 4 cells in Table III.
	tablesCells = 70
)

type tables struct {
	c     *cache.Cache
	cfg   report.AttackConfig
	quick bool // Table I's first row only, no Table III
	cold1 string
	cold3 string
}

func setupTables(e env) (instance, error) {
	c, err := cache.Open(filepath.Join(e.dir, "cache"), cache.Options{})
	if err != nil {
		return nil, err
	}
	w := &tables{
		c:     c,
		cfg:   report.AttackConfig{Timeout: tablesBudget, Scale: tablesScale, Seed: sweep.DeriveSeed(e.seed, 0), Jobs: 2, Cache: c},
		quick: e.quick,
	}
	t1, t3, err := w.render(opCtx{})
	if err != nil {
		return nil, err
	}
	w.cold1, w.cold3 = t1, t3
	// The cold fill's attacks take half the time on two sweep workers.
	// The warm op is 70 cache reads: a second worker saved about 10% of
	// its median but doubled its spread across runs on a 2-vCPU host,
	// because its time then depended on whether the other vCPU was free.
	w.cfg.Jobs = 1
	return w, nil
}

func (w *tables) render(c opCtx) (string, string, error) {
	var counts []int // nil: the paper's ten block counts
	if w.quick {
		counts = []int{1}
	}
	_, end := c.span("report.Table1")
	t1, err := report.Table1(w.cfg, counts)
	end()
	if err != nil {
		return "", "", err
	}
	if w.quick {
		return t1.String(), "", nil
	}
	_, end = c.span("report.Table3")
	t3, err := report.Table3(w.cfg)
	end()
	if err != nil {
		return "", "", err
	}
	return t1.String(), t3.String(), nil
}

func (w *tables) do(c opCtx) (func() error, error) {
	queries, calls, st := attack.OracleQueriesTotal(), sat.SolveCallsTotal(), w.c.Stats()
	t1, t3, err := w.render(c)
	if err != nil {
		return nil, err
	}
	queries, calls = attack.OracleQueriesTotal()-queries, sat.SolveCallsTotal()-calls
	after := w.c.Stats()
	hits, misses := after.Hits-st.Hits, after.Misses-st.Misses
	cells := int64(tablesCells)
	if w.quick {
		cells = 3
	}
	return func() error {
		switch {
		case t1 != w.cold1 || t3 != w.cold3:
			return fmt.Errorf("warm tables differ from the cold fill")
		case queries != 0 || calls != 0:
			return fmt.Errorf("warm tables issued %d oracle queries and %d solver calls, want 0", queries, calls)
		case hits != cells || misses != 0:
			return fmt.Errorf("warm tables: %d cache hits and %d misses, want %d and 0", hits, misses, cells)
		}
		return nil
	}, nil
}

func (w *tables) finish() error { return nil }

func (w *tables) probe() probeInputs {
	prof, _ := circuit.ProfileByName("c7552")
	in := probeInputs{payload: []byte(`"inf"`)}
	in.synth = append(in.synth, func() (*netlist.Netlist, error) { return prof.Synthesize(tablesScale) })
	for _, name := range []string{"b15", "s35932", "s38584", "b20"} {
		p, _ := circuit.ProfileByName(name)
		in.synth = append(in.synth, func() (*netlist.Netlist, error) { return p.Synthesize(tablesScale) })
	}
	// The cold fill's locks: Table I's largest 2×2 and 8×8×8 cells on
	// c7552, and one Table III block on b15.
	orig, err := prof.Synthesize(tablesScale)
	if err != nil {
		return in
	}
	b15, _ := circuit.ProfileByName("b15")
	b15nl, err := b15.Synthesize(tablesScale)
	if err != nil {
		return in
	}
	for _, l := range []lockSpec{
		{orig, core.Options{Blocks: 25, Size: core.Size2x2, Seed: w.cfg.Seed}},
		{orig, core.Options{Blocks: 3, Size: core.Size8x8x8, Seed: w.cfg.Seed}},
		{b15nl, core.Options{Blocks: 1, Size: core.Size8x8x8, Seed: w.cfg.Seed}},
	} {
		in.locks = append(in.locks, l)
		if res, err := core.Lock(l.orig, l.opt); err == nil {
			in.locked = append(in.locked, lockedCircuit{res.Locked, res.KeyInputPos, res.Key})
		}
	}
	return in
}

func (w *tables) cache() *cache.Cache { return w.c }
func (w *tables) close() error        { return nil }
