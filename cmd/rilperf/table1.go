package main

import (
	"fmt"
	"time"

	"repro/internal/attack"
	"repro/internal/cache"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/sweep"
)

// table1-solve: one Table I cell per op, as report.Table1 computes it:
// core.Lock, the netlint gate, then a sequential SATAttack. The cells
// are the table's small geometries, cycled so any prefix of the run
// holds the same mix. 8×8 cells are left out: a single 8×8 attack on
// c7552@0.1 takes 0.2–2.4 s (22 s with two blocks), so a few of them
// would decide a whole run's time and its spread across seeds.
var table1Workload = workload{
	name:    "table1-solve",
	streams: 1,
	sample:  40,
	setup:   setupTable1,
}

const table1Scale = 0.1

// table1Cells are the geometries of one row of the cycle; each row
// locks with its own seed.
var table1Cells = []struct {
	size   core.Size
	blocks int
}{
	{core.Size2x2, 1}, {core.Size2x2, 2}, {core.Size2x2, 3}, {core.Size2x2, 5},
	{core.Size{K: 4, InputRouting: true}, 1},
}

type table1Cell struct {
	size   core.Size
	blocks int
	seed   int64
}

type table1 struct {
	orig       *netlist.Netlist
	functional *attack.SimOracle // the unlocked circuit, for verification only
	cells      []table1Cell
}

// c7552 synthesizes the c7552 profile at the Table I workloads' scale.
func c7552() (*netlist.Netlist, error) {
	prof, _ := circuit.ProfileByName("c7552")
	return prof.Synthesize(table1Scale)
}

func setupTable1(e env) (instance, error) {
	orig, err := c7552()
	if err != nil {
		return nil, err
	}
	functional, err := attack.NewSimOracle(orig)
	if err != nil {
		return nil, err
	}
	rows := 48
	if e.quick {
		rows = 1
	}
	w := &table1{orig: orig, functional: functional}
	// Warm up on one fixed cell so the solver's first allocations and
	// the heap's growth are paid before the clock starts. The cell does
	// not depend on the seed, which keeps setup_s steady across seeds.
	w.cells = []table1Cell{{core.Size2x2, 2, 1}}
	check, err := w.do(opCtx{})
	if err == nil {
		err = check()
	}
	if err != nil {
		return nil, fmt.Errorf("warm-up cell: %w", err)
	}
	w.cells = nil
	for r := 0; r < rows; r++ {
		seed := sweep.DeriveSeed(e.seed, r)
		for _, c := range table1Cells {
			w.cells = append(w.cells, table1Cell{c.size, c.blocks, seed})
		}
	}
	return w, nil
}

func (w *table1) do(c opCtx) (func() error, error) {
	cell := w.cells[c.op%len(w.cells)]
	_, end := c.span("core.Lock")
	res, err := core.Lock(w.orig, core.Options{Blocks: cell.blocks, Size: cell.size, Seed: cell.seed})
	end()
	if err != nil {
		return nil, err
	}
	_, end = c.span("netlint.Check")
	err = lint(res.Locked, res.KeyInputPos, res.Key)
	end()
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
	r, err := satAttack(c, res.Locked, res.KeyInputPos, sim)
	if err != nil {
		return nil, err
	}
	return func() error {
		return verifyKey(res.Locked, res.KeyInputPos, r.Status, r.Key, w.functional, cell.seed, 0)
	}, nil
}

// satAttack runs a sequential SAT attack with the 60 s budget the
// table cells use; traced, it times the DIP loop's phases.
func satAttack(c opCtx, locked *netlist.Netlist, keyPos []int, sim *attack.SimOracle) (*attack.SATResult, error) {
	ac, end := c.span("attack.SATAttack")
	defer end()
	oracle, timed := ac.oracle(sim)
	opt := attack.SATOptions{Timeout: 60 * time.Second}
	var clock *dipClock
	if ac.tr != nil {
		clock = newDIPClock(ac)
		opt.Progress = clock.progress
	}
	r, err := attack.SATAttack(locked, keyPos, oracle, opt)
	if err == nil && clock != nil {
		clock.done(timed, r)
	}
	return r, err
}

// verifyKey is the correctness gate on every recovered key: the attack
// converged and the key's output error rate over 16×64 random patterns,
// against a functional oracle the attack never queried, is at most
// tolerance (0 for exact attacks).
func verifyKey(locked *netlist.Netlist, keyPos []int, status attack.Status, key []bool, functional attack.Oracle, seed int64, tolerance float64) error {
	if status != attack.KeyFound {
		return fmt.Errorf("attack ended %v", status)
	}
	e, err := attack.VerifyKey(locked, keyPos, key, functional, 16, seed)
	if err != nil {
		return err
	}
	if e > tolerance {
		return fmt.Errorf("recovered key has output error rate %.4f, want <= %v", e, tolerance)
	}
	return nil
}

func (w *table1) finish() error { return nil }

func (w *table1) probe() probeInputs {
	in := probeInputs{
		synth:   []func() (*netlist.Netlist, error){c7552},
		payload: attackPayload,
	}
	for _, cell := range w.cells[:len(table1Cells)] {
		opt := core.Options{Blocks: cell.blocks, Size: cell.size, Seed: cell.seed}
		in.locks = append(in.locks, lockSpec{w.orig, opt})
		if res, err := core.Lock(w.orig, opt); err == nil {
			in.locked = append(in.locked, lockedCircuit{res.Locked, res.KeyInputPos, res.Key})
		}
	}
	return in
}

// attackPayload is the size of one cached attack result: a table
// cell's rendered runtime plus the sweep envelope around it.
var attackPayload = []byte(`{"name":"table1/1/2x2","index":0,"worker":0,"value":"0.031","seconds":0.0312}`)

func (w *table1) cache() *cache.Cache { return nil }
func (w *table1) close() error        { return nil }
