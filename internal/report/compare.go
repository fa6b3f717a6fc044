package report

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/attack"
	"repro/internal/baselines"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/lutsim"
	"repro/internal/mtj"
	"repro/internal/netlist"
	"repro/internal/psca"
	"repro/internal/sweep"
)

// Fig1 reproduces the Fig. 1 observation: re-encoding a MESO
// polymorphic gate (8 gates + 7 MUXes, 3 key bits) as a 2-input LUT
// (3 MUXes, 4 key bits) significantly reduces SAT-attack runtime even
// though the key space grows.
func Fig1(cfg AttackConfig, nGates int) (*Table, error) {
	orig, err := netlist.Random(netlist.RandomProfile{
		Name: "fig1", Inputs: 16, Outputs: 8,
		Gates: int(2000 * cfg.Scale), Locality: 0.7,
	}, cfg.Seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Fig. 1: SAT-attack runtime, MESO encoding vs LUT-2 re-encoding (same gates)",
		Header: []string{"encoding", "key bits", "extra gates", "DIPs", "runtime (s)"},
	}
	sum := cache.NetlistSum(orig)
	tc := cfg.cells()
	var jobs []sweep.Job
	for _, enc := range []struct {
		name string
		lock func(*netlist.Netlist, int, int64) (*baselines.Locked, error)
	}{
		{"meso", baselines.MESOLock},
		{"meso-as-lut2", baselines.MESOAsLUT2},
	} {
		jobs = append(jobs, tc.cell("fig1/"+enc.name, "fig1-encoding-cell", sum,
			map[string]any{"encoding": enc.name, "gates": nGates},
			func(ctx context.Context) (any, error) {
				l, err := enc.lock(orig, nGates, cfg.Seed)
				if err != nil {
					return nil, err
				}
				res, err := cfg.satAttack(ctx, l.Netlist, l.KeyPos, l.Key)
				if err != nil {
					return nil, err
				}
				return []string{l.Scheme,
					fmt.Sprintf("%d", l.KeyBits()),
					fmt.Sprintf("%d", l.Netlist.NumLogicGates()-orig.NumLogicGates()),
					fmt.Sprintf("%d", res.Iterations),
					fmtDuration(res.Elapsed, res.Status != attack.KeyFound)}, nil
			}))
	}
	return rowTable(t, cfg, jobs)
}

// matrixColumn is one Table V scheme. Its lock is built once and only
// read by the column's cell jobs, which may run concurrently; each job
// activates oracles of its own, since a batched query's answer buffer
// belongs to one caller at a time.
type matrixColumn struct {
	name, scheme string
	spec         any // the lock's parameters, which every cell key carries
	lock         *baselines.Locked
	ril          *core.Result     // the proposed scheme only
	scan         *netlist.Netlist // ril's scan-mode view, what the scan chain shows
}

// matrixColumns locks orig with Table V's schemes, in column order: five
// baselines through the scheme table, then the proposed scheme with
// scan-enable obfuscation.
func matrixColumns(orig *netlist.Netlist, seed int64) ([]*matrixColumn, error) {
	var cols []*matrixColumn
	for _, b := range []struct {
		name, scheme string
		params       baselines.Params
	}{
		{"SFLL-HD", "sfll", baselines.Params{KeyBits: 12, Seed: seed}},
		{"MESO", "meso", baselines.Params{Blocks: 4, Seed: seed}},
		{"CAS-Lock", "caslock", baselines.Params{KeyBits: 8, Seed: seed}},
		{"LUT-lock", "lut", baselines.Params{Blocks: 6, Seed: seed}},
		{"XOR", "xor", baselines.Params{KeyBits: 10, Seed: seed}},
	} {
		l, _, err := baselines.LockScheme(b.scheme, orig, b.params)
		if err != nil {
			return nil, err
		}
		cols = append(cols, &matrixColumn{name: b.name, scheme: b.scheme, spec: b.params, lock: l})
	}
	opt := core.Options{Blocks: 2, Size: core.Size8x8x8, Seed: seed, ScanEnable: true}
	res, err := core.Lock(orig, opt)
	if err != nil {
		return nil, err
	}
	scan, err := res.ScanView()
	if err != nil {
		return nil, err
	}
	return append(cols, &matrixColumn{name: "RIL (proposed)", scheme: "ril", spec: opt, ril: res, scan: scan,
		lock: &baselines.Locked{Scheme: "ril", Netlist: res.Locked, KeyPos: res.KeyInputPos, Key: res.Key}}), nil
}

// equivalent proves a circuit equal to the column's activated lock
// within the budget. Undecided counts as not equal: the attacker cannot
// confirm a recovery either.
func (c *matrixColumn) equivalent(nl *netlist.Netlist, timeout time.Duration) (bool, error) {
	truth, err := c.lock.Netlist.BindInputs(c.lock.KeyPos, c.lock.Key)
	if err != nil {
		return false, err
	}
	eq, _, err := attack.EquivalentSAT(nl, truth, timeout)
	return err == nil && eq, nil
}

// matrixRows are Table V's attacks, in row order. resists runs one
// cell's attack and reports whether the column's scheme survives it;
// scanOnly rows apply only to the scan-obfuscated scheme, and the power
// row (no resists) is drawn outside the sweep by powerMarks.
var matrixRows = []struct {
	label, attack string
	rounds        int // AppSAT's outer-loop bound, part of its cells' keys
	// equiv is attack.EquivalenceVersion where EquivalentSAT gives the
	// verdict (matrixColumn.equivalent), part of the cells' keys.
	equiv    int
	scanOnly bool
	resists  func(ctx context.Context, cfg AttackConfig, c *matrixColumn) (bool, error)
}{
	{"SAT attack", "sat", 0, 0, false, func(ctx context.Context, cfg AttackConfig, c *matrixColumn) (bool, error) {
		res, err := cfg.satAttack(ctx, c.lock.Netlist, c.lock.KeyPos, c.lock.Key)
		if err != nil {
			return false, err
		}
		// Resilient when the attack times out or the DIP count grows
		// exponentially in the key width (point-function behaviour).
		threshold := 1 << min(c.lock.KeyBits()/2, 20)
		return res.Status != attack.KeyFound || res.Iterations >= threshold, nil
	}},
	{"AppSAT", "appsat", appSATRounds, attack.EquivalenceVersion, false, func(ctx context.Context, cfg AttackConfig, c *matrixColumn) (bool, error) {
		// The proposed scheme answers through its scan chain.
		view := c.lock.Netlist
		if c.scan != nil {
			view = c.scan
		}
		oracle, err := activate(view, c.lock.KeyPos, c.lock.Key)
		if err != nil {
			return false, err
		}
		ar, err := attack.AppSAT(c.lock.Netlist, c.lock.KeyPos, oracle, cfg.appSATOptions(ctx))
		if err != nil || ar.Status != attack.KeyFound {
			return true, err
		}
		// Point-function corruption is a needle random sampling
		// misses; require a SAT proof that the recovered key's
		// circuit equals the activated one.
		cand, err := c.lock.Netlist.BindInputs(c.lock.KeyPos, ar.Key)
		if err != nil {
			return false, err
		}
		broken, err := c.equivalent(cand, cfg.Timeout)
		return !broken, err
	}},
	// Power side channel: CPA on the scheme's key-storage cell.
	{"Power side channel", "power", 0, 0, false, nil},
	// Removal: the structural bypass strips key-dependent flip logic;
	// the scheme is broken when the stripped circuit is provably
	// equivalent to the activated oracle.
	{"Removal attack", "removal", 0, attack.EquivalenceVersion, false, func(_ context.Context, cfg AttackConfig, c *matrixColumn) (bool, error) {
		stripped, err := attack.StructuralRemoval(c.lock.Netlist, c.lock.KeyPos, cfg.Seed)
		if err != nil {
			return false, err
		}
		broken, err := c.equivalent(stripped, cfg.Timeout)
		return !broken, err
	}},
	{"ScanSAT", "scansat", 0, 0, true, func(ctx context.Context, cfg AttackConfig, c *matrixColumn) (bool, error) {
		scanOracle, err := activate(c.scan, c.lock.KeyPos, c.lock.Key)
		if err != nil {
			return false, err
		}
		funcOracle, err := activate(c.lock.Netlist, c.lock.KeyPos, c.lock.Key)
		if err != nil {
			return false, err
		}
		var luts []string
		for _, blk := range c.ril.Blocks {
			luts = append(luts, blk.LUTOut...)
		}
		sr, err := attack.ScanSAT(c.lock.Netlist, c.lock.KeyPos, luts, scanOracle, funcOracle, cfg.satOptions(ctx))
		if err != nil {
			return false, err
		}
		return sr.Defeated, nil
	}},
	// Shift and scan: the proposed scheme keeps key registers on a
	// separate secure-cell chain with a gated scan-out (§IV-C); the
	// attack model measures how many key bits leak beyond guessing.
	{"Shift and scan", "shift-scan", 0, 0, true, func(_ context.Context, cfg AttackConfig, c *matrixColumn) (bool, error) {
		learned, err := core.ShiftAndScanAttack(c.ril, cfg.Seed)
		return learned == 0, err
	}},
}

// Table5 reproduces the paper's comparison matrix: which schemes
// resist which attacks. Every cell is measured by actually running the
// attack on a small locked instance (not transcribed from the paper).
// Marks: "Y" resilient, "x" broken, "-" not applicable.
func Table5(cfg AttackConfig) (*Table, error) {
	orig, err := netlist.Random(netlist.RandomProfile{
		Name: "tbl5", Inputs: 14, Outputs: 6,
		// Two 8x8x8 blocks need enough compatible gates.
		Gates: max(int(2500*cfg.Scale), 500), Locality: 0.6,
	}, cfg.Seed)
	if err != nil {
		return nil, err
	}
	cols, err := matrixColumns(orig, cfg.Seed)
	if err != nil {
		return nil, err
	}
	power, err := powerMarks(cols, cfg.Seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Table V: measured attack resilience (Y resilient, x broken, - n/a)",
		Header: []string{"attack"},
		Notes: []string{
			fmt.Sprintf("scale=%.2f timeout=%v; every cell is a live attack run", cfg.Scale, cfg.Timeout),
			"SAT resilience = timeout or exponential DIP growth in the key length",
		},
	}
	for _, c := range cols {
		t.Header = append(t.Header, c.name)
	}
	// Lay the matrix out: "-" where the attack has no target, the power
	// marks as drawn, and a sweep job for every other cell, whose mark
	// fills its (row, column) place once the sweep returns.
	sum := cache.NetlistSum(orig)
	rows := make([][]string, len(matrixRows))
	tc := cfg.cells()
	var jobs []sweep.Job
	var at [][2]int
	for ri, r := range matrixRows {
		rows[ri] = make([]string, 1+len(cols))
		rows[ri][0] = r.label
		for ci, c := range cols {
			switch {
			case r.resists == nil:
				rows[ri][1+ci] = power[ci]
			case r.scanOnly && c.ril == nil:
				rows[ri][1+ci] = "-"
			default:
				at = append(at, [2]int{ri, 1 + ci})
				jobs = append(jobs, tc.cell("table5/"+r.attack+"/"+c.scheme, "attack-mark-cell", sum,
					map[string]any{"attack": r.attack, "maxrounds": r.rounds, "equiv": r.equiv, "scheme": c.scheme, "lock": c.spec},
					func(ctx context.Context) (any, error) {
						resilient, err := r.resists(ctx, cfg, c)
						return mark(resilient), err
					}))
			}
		}
	}
	marks, err := runCells[string](cfg, jobs)
	if err != nil {
		return nil, err
	}
	for i, m := range marks {
		rows[at[i][0]][at[i][1]] = m
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	return t, nil
}

// powerMarks runs CPA on each column's key-storage cell technology:
// complementary MRAM for the proposed scheme, CMOS/SRAM for the rest.
// Every device draws from one stream seeded with seed, in column order,
// so the row is computed in one piece; it queries no oracle and calls
// no solver.
func powerMarks(cols []*matrixColumn, seed int64) ([]string, error) {
	rng := rand.New(rand.NewSource(seed))
	marks := make([]string, len(cols))
	for i, c := range cols {
		var traces []psca.Trace
		if c.ril != nil {
			l := lutsim.Sample(lutsim.DefaultConfig(), mtj.DefaultVariation(), lutsim.DefaultMOSVariation(), rng)
			l.Configure(logic.AND)
			traces = psca.CollectMRAM(l, 300, 0.05, rng.Int63())
		} else {
			sr := lutsim.SampleSRAM(lutsim.DefaultConfig(), lutsim.DefaultMOSVariation(), rng)
			sr.Configure(logic.AND)
			traces = psca.CollectSRAM(sr, 300, 0.05, rng.Int63())
		}
		cpa, err := psca.CPA(traces)
		if err != nil {
			return nil, err
		}
		marks[i] = mark(!cpa.Recovered(logic.AND))
	}
	return marks, nil
}

func mark(resilient bool) string {
	if resilient {
		return "Y"
	}
	return "x"
}

// DIPGrowth measures SAT-attack DIP counts versus key width for a
// point-function scheme and random locking — the exponential-vs-linear
// contrast behind the paper's SAT-hardness discussion.
func DIPGrowth(cfg AttackConfig, widths []int) (*Table, error) {
	orig, err := netlist.Random(netlist.RandomProfile{
		Name: "dip", Inputs: 16, Outputs: 6, Gates: 120, Locality: 0.6,
	}, cfg.Seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "DIP growth vs key width: point function (SARLock) vs random XOR locking",
		Header: []string{"key bits", "sarlock DIPs", "xor DIPs"},
	}
	sum := cache.NetlistSum(orig)
	// Each cell runs under its own fixed 30s solver budget, so the key
	// pins that too (the cell keys already fold cfg.Timeout, which these
	// cells ignore; over-keying only costs hits).
	budget := cfg
	budget.Timeout = 30 * time.Second
	tc := cfg.cells()
	var jobs []sweep.Job
	for _, w := range widths {
		for _, scheme := range []string{"sarlock", "xor"} {
			jobs = append(jobs, tc.cell(fmt.Sprintf("dip/%s/%d", scheme, w), "dip-growth-cell", sum,
				map[string]any{"scheme": scheme, "width": w, "solver_timeout": "30s"},
				func(ctx context.Context) (any, error) {
					l, _, err := baselines.LockScheme(scheme, orig, baselines.Params{KeyBits: w, Seed: cfg.Seed})
					if err != nil {
						return nil, err
					}
					res, err := budget.satAttack(ctx, l.Netlist, l.KeyPos, l.Key)
					if err != nil {
						return nil, err
					}
					return fmt.Sprintf("%d", res.Iterations), nil
				}))
		}
	}
	cells, err := runCells[string](cfg, jobs)
	if err != nil {
		return nil, err
	}
	for i, w := range widths {
		t.AddRow(fmt.Sprintf("%d", w), cells[2*i], cells[2*i+1])
	}
	return t, nil
}
