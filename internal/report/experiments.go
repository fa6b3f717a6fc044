package report

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/attack"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/netlint"
	"repro/internal/netlist"
	"repro/internal/sweep"
)

// AttackConfig scales the SAT experiments to the host machine: the
// paper ran a 5-day timeout on full-size benchmarks; the reproduction
// defaults to seconds on scaled circuits, preserving the shape (which
// configurations reach the timeout first).
type AttackConfig struct {
	Timeout time.Duration
	Scale   float64 // circuit scale factor for the ISCAS profiles (0,1]
	Seed    int64
	NoLint  bool // skip the netlint gate on freshly locked circuits
	// Jobs is the sweep worker count for attack tables (0 = NumCPU,
	// 1 = sequential). Per-job seeds are fixed per table cell, so the
	// emitted tables are identical for every Jobs value.
	Jobs int
	// Context cancels a running table sweep early (nil = none).
	Context context.Context
	// Portfolio, when >= 2, races that many diversified CDCL workers
	// per solver call in the attack tables (see attack.SATOptions).
	// Runtimes become trace-nondeterministic; DIP/query counts may vary
	// between runs, the verdicts do not.
	Portfolio int
	// Cache, when non-nil, memoizes table cells across runs in the
	// content-addressed result cache: each sweep job is keyed by the
	// canonical circuit form plus every option that determines its
	// cell, looked up before dispatch and stored on success. A warm
	// re-run of an identical table emits byte-identical output with
	// zero oracle queries and zero solver calls, and a re-run of an
	// interrupted one runs only the cells the cache lacks.
	Cache *cache.Cache
}

// runCells runs a table's cell jobs on the sweep worker pool and
// returns each cell's value of type T, in job order; the first job
// error fails the whole table. A live job returns T directly; a job
// served from the cache carries its recorded JSON instead, which
// decodes back into T.
func runCells[T any](cfg AttackConfig, jobs []sweep.Job) ([]T, error) {
	results := (&sweep.Runner{Workers: cfg.Jobs, Cache: cfg.Cache}).Run(cfg.Context, jobs)
	if err := sweep.FirstErr(results); err != nil {
		return nil, err
	}
	vals := make([]T, len(results))
	for i, res := range results {
		if v, ok := res.Value.(T); ok {
			vals[i] = v
			continue
		}
		raw, ok := res.Value.(json.RawMessage)
		if !ok {
			return nil, fmt.Errorf("report: job %q result is %T, want %T", res.Name, res.Value, vals[i])
		}
		if err := json.Unmarshal(raw, &vals[i]); err != nil {
			return nil, fmt.Errorf("report: job %q recorded result: %w", res.Name, err)
		}
	}
	return vals, nil
}

// rowTable fills t with the rows its jobs compute, one whole row per
// job, in job order.
func rowTable(t *Table, cfg AttackConfig, jobs []sweep.Job) (*Table, error) {
	rows, err := runCells[[]string](cfg, jobs)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, rows...)
	return t, nil
}

// tableCells builds the sweep jobs of one table call. The AttackConfig
// knobs that change a cell's outcome and that every cell of the call
// shares (timeout, portfolio, the lint gate) and the attack's search
// version (a DIP count belongs to one search) are rendered once, when
// the call starts, and each cell key mixes in the rendered bytes.
type tableCells struct {
	cfg    AttackConfig
	attack cache.Rendered
}

// cells starts a table call's cell jobs.
func (cfg AttackConfig) cells() tableCells {
	tc := tableCells{cfg: cfg}
	if cfg.Cache != nil {
		tc.attack = cache.RenderOptions(map[string]any{
			"timeout":   cfg.Timeout.Nanoseconds(),
			"portfolio": cfg.Portfolio,
			"nolint":    cfg.NoLint,
			"search":    attack.SearchVersion,
		})
	}
	return tc
}

// key derives the content-addressed cache key for one attack-table
// cell. Everything that determines the cell's value is folded in: the
// circuit's canonical netlist digest (cache.NetlistSum; a benchmark
// circuit is built and digested once per process, and is read-only,
// see circuitMemo), the cell options (block count, LUT size, ...), the
// call's rendered attack options and the lock seed.
// It returns the zero Key — which opts the job out of caching — when
// cfg.Cache is nil or the key cannot be built, so callers can assign it
// unconditionally.
func (tc tableCells) key(kind string, sum cache.Digest, opts map[string]any) cache.Key {
	if tc.cfg.Cache == nil {
		return cache.Key{}
	}
	k, err := cache.NewKey(kind).
		NetlistSum("circuit", sum).
		Options("cell", opts).
		RenderedOptions("attack", tc.attack).
		Int("seed", tc.cfg.Seed).
		Key()
	if err != nil {
		return cache.Key{}
	}
	return k
}

// cell builds the sweep job of one table cell: its name, its cache key
// (key of the kind over the circuit digest and the cell's options)
// and its computation, which gets the job's context. Every attack the
// tables run goes through here, so every cell is cached and spread
// over the workers alike.
func (tc tableCells) cell(name, kind string, sum cache.Digest, opts map[string]any, run func(context.Context) (any, error)) sweep.Job {
	return sweep.Job{Name: name, CacheKey: tc.key(kind, sum, opts), Run: run}
}

// satOptions are the options of every exact SAT attack the tables run:
// the table's budget and portfolio, and the job's context.
func (cfg AttackConfig) satOptions(ctx context.Context) attack.SATOptions {
	return attack.SATOptions{Timeout: cfg.Timeout, Context: ctx, Portfolio: cfg.Portfolio}
}

// appSATRounds bounds the outer loop of every AppSAT cell; the cells'
// keys carry it.
const appSATRounds = 16

// appSATOptions are satOptions' AppSAT counterpart.
func (cfg AttackConfig) appSATOptions(ctx context.Context) attack.AppSATOptions {
	opt := attack.DefaultAppSAT()
	opt.Timeout, opt.Context, opt.MaxRounds = cfg.Timeout, ctx, appSATRounds
	return opt
}

// activate binds key to nl's key inputs and returns the activated chip
// as an oracle. nl may be a lock or its scan-mode view.
func activate(nl *netlist.Netlist, keyPos []int, key []bool) (*attack.SimOracle, error) {
	bound, err := nl.BindInputs(keyPos, key)
	if err != nil {
		return nil, err
	}
	return attack.NewSimOracle(bound)
}

// satAttack runs the exact SAT attack on a lock against the honest
// oracle its correct key activates (static operational mode).
func (cfg AttackConfig) satAttack(ctx context.Context, locked *netlist.Netlist, keyPos []int, key []bool) (*attack.SATResult, error) {
	oracle, err := activate(locked, keyPos, key)
	if err != nil {
		return nil, err
	}
	return attack.SATAttack(locked, keyPos, oracle, cfg.satOptions(ctx))
}

// functionalError is the output error rate of a recovered key over 8×64
// patterns against the real functional circuit. Its oracle is its own,
// so the patterns never inflate an attack oracle's query count (the
// quantity the paper's tables budget).
func functionalError(res *core.Result, key []bool, seed int64) (float64, error) {
	oracle, err := activate(res.Locked, res.KeyInputPos, res.Key)
	if err != nil {
		return 0, err
	}
	return attack.VerifyKey(res.Locked, res.KeyInputPos, key, oracle, 8, seed)
}

// lintLock gates every experiment on a structurally sound, full-
// strength lock: a cycle, an undriven net or dead key material would
// silently skew the reported SAT-hardness numbers (the nominal key
// length would overstate the search space). Overridable for
// deliberately broken configurations via AttackConfig.NoLint.
func lintLock(res *core.Result, cfg AttackConfig) error {
	if cfg.NoLint {
		return nil
	}
	key := make(map[string]bool, len(res.Key))
	for i, name := range res.KeyNames {
		key[name] = res.Key[i]
	}
	diags, err := netlint.Check(res.Locked, netlint.Options{Key: key},
		netlint.CombCycle, netlint.Undriven, netlint.KeyInfluence, netlint.ConstLUT)
	if err != nil {
		return err
	}
	if len(diags) > 0 {
		return fmt.Errorf("report: locked %s fails netlint: %s", res.Locked.Name, diags[0])
	}
	return nil
}

// satRuntimeCell is one cell of Table I, of Table III's SAT columns and
// of -exp satruntime: orig locked with n blocks of the size, linted,
// and the SAT attack's runtime, "inf" at the budget. A cell whose lock
// fails renders "n/a" (some circuits cannot host the blocks), so lock
// errors stay cell-local instead of failing the table. The seed fixes
// the lock, so the cell is reproducible no matter which worker runs it.
func satRuntimeCell(tc tableCells, name string, orig benchCircuit, n int, size core.Size) sweep.Job {
	cfg := tc.cfg
	return tc.cell(name, "sat-runtime-cell", orig.sum, map[string]any{"blocks": n, "size": size.String()},
		func(ctx context.Context) (any, error) {
			res, err := core.Lock(orig.nl, core.Options{Blocks: n, Size: size, Seed: cfg.Seed})
			if err == nil {
				err = lintLock(res, cfg)
			}
			if err != nil {
				return "n/a", nil
			}
			ar, err := cfg.satAttack(ctx, res.Locked, res.KeyInputPos, res.Key)
			if err != nil {
				return "n/a", nil
			}
			return fmtDuration(ar.Elapsed, ar.Status != attack.KeyFound), nil
		})
}

// Table1 reproduces paper Table I: SAT-attack runtime for c7552 locked
// with {counts} RIL-Blocks of sizes 2×2, 8×8 and 8×8×8.
func Table1(cfg AttackConfig, counts []int) (*Table, error) {
	c7552, err := benchmarks.get("c7552", cfg.Scale)
	if err != nil {
		return nil, err
	}
	t, err := satRuntimeTable(cfg, "table1", c7552, counts, nil)
	if err != nil {
		return nil, err
	}
	t.Title = "Table I: SAT-attack runtime (s) on c7552 vs RIL-Block count and size"
	return t, nil
}

// SATRuntimeTable renders the Table I layout for an arbitrary circuit:
// SAT-attack runtime for orig locked with each of {counts} RIL-Blocks
// of each size in sizes (nil = the paper's defaults). Table1 is this
// sweep specialized to c7552; the generalized form backs `rilbench
// -exp satruntime`, the cache differential suite and the warm/cold CI
// benchmark, which run the same sweep over small circuits such as c17.
func SATRuntimeTable(cfg AttackConfig, orig *netlist.Netlist, counts []int, sizes []core.Size) (*Table, error) {
	return satRuntimeTable(cfg, "satruntime/"+orig.Name, benchCircuit{orig, cache.NetlistSum(orig)}, counts, sizes)
}

// satRuntimeTable builds the Table I layout; name prefixes its cells'
// job names.
func satRuntimeTable(cfg AttackConfig, name string, orig benchCircuit, counts []int, sizes []core.Size) (*Table, error) {
	if len(counts) == 0 {
		counts = []int{1, 2, 3, 4, 5, 10, 25, 50, 75, 100}
	}
	if len(sizes) == 0 {
		sizes = []core.Size{core.Size2x2, core.Size8x8, core.Size8x8x8}
	}
	header := []string{"blocks"}
	for _, size := range sizes {
		header = append(header, size.String())
	}
	t := &Table{
		Title:  fmt.Sprintf("SAT-attack runtime (s) on %s vs RIL-Block count and size", orig.nl.Name),
		Header: header,
		Notes: []string{
			fmt.Sprintf("scale=%.2f timeout=%v ('inf' = timeout, 'n/a' = circuit cannot host the blocks)", cfg.Scale, cfg.Timeout),
		},
	}
	tc := cfg.cells()
	var jobs []sweep.Job
	for _, n := range counts {
		for _, size := range sizes {
			jobs = append(jobs, satRuntimeCell(tc, fmt.Sprintf("%s/%d/%s", name, n, size), orig, n, size))
		}
	}
	cells, err := runCells[string](cfg, jobs)
	if err != nil {
		return nil, err
	}
	for i, n := range counts {
		t.AddRow(append([]string{fmt.Sprintf("%d", n)}, cells[i*len(sizes):(i+1)*len(sizes)]...)...)
	}
	return t, nil
}

// Table2 reproduces paper Table II: the configuration key bits of all
// sixteen two-input functions of the MRAM LUT.
func Table2() *Table {
	t := &Table{
		Title:  "Table II: configuration key bits of the 2-input MRAM LUT",
		Header: []string{"function", "K1", "K2", "K3", "K4"},
	}
	b := func(v bool) string {
		if v {
			return "1"
		}
		return "0"
	}
	for _, f := range logic.AllFunc2() {
		k := f.Keys()
		t.AddRow(f.String(), b(k[0]), b(k[1]), b(k[2]), b(k[3]))
	}
	return t
}

// Table3 reproduces paper Table III: SAT runtime with 1/2/3 8×8×8
// RIL-Blocks per benchmark, plus whether AppSAT succeeds when the
// scan-enable obfuscation is active.
func Table3(cfg AttackConfig) (*Table, error) {
	benches, err := table3Suite(cfg.Scale)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Table III: SAT-attack runtime (s), 8x8x8 RIL-Blocks; AppSAT under scan-enable obfuscation",
		Header: []string{"suite", "circuit", "1 block", "2 blocks", "3 blocks", "AppSAT success"},
		Notes: []string{
			fmt.Sprintf("scale=%.2f timeout=%v per attack", cfg.Scale, cfg.Timeout),
		},
	}
	// Four sweep jobs per benchmark: the 1/2/3-block SAT attacks and
	// the AppSAT run against the scan-obfuscated oracle.
	const perBench = 4
	tc := cfg.cells()
	var jobs []sweep.Job
	for _, b := range benches {
		for _, blocks := range []int{1, 2, 3} {
			jobs = append(jobs, satRuntimeCell(tc, fmt.Sprintf("table3/%s/%dblk", b.name, blocks), b.benchCircuit, blocks, core.Size8x8x8))
		}
		jobs = append(jobs, tc.cell(fmt.Sprintf("table3/%s/appsat", b.name), "appsat-scan-cell", b.sum,
			map[string]any{"blocks": 1, "size": core.Size8x8x8.String(), "maxrounds": appSATRounds},
			func(ctx context.Context) (any, error) {
				ok, err := appSATSucceeds(ctx, b.nl, cfg)
				if err != nil || !ok {
					return "x", err
				}
				return "yes", nil
			}))
	}
	cells, err := runCells[string](cfg, jobs)
	if err != nil {
		return nil, err
	}
	for i, b := range benches {
		t.AddRow(append([]string{b.suite, b.name}, cells[i*perBench:(i+1)*perBench]...)...)
	}
	return t, nil
}

// namedBench is one Table III row's circuit.
type namedBench struct {
	suite, name string
	benchCircuit
}

func table3Suite(scale float64) ([]namedBench, error) {
	var out []namedBench
	for _, b := range []struct{ suite, name string }{
		{"ISCAS/ITC", "b15"}, {"ISCAS/ITC", "s35932"}, {"ISCAS/ITC", "s38584"}, {"ISCAS/ITC", "b20"},
		{"CEP", "AES"}, {"CEP", "SHA-256"}, {"CEP", "MD5"}, {"CEP", "GPS"}, {"CEP", "DES"}, {"CEP", "FIR"},
	} {
		c, err := benchmarks.get(b.name, scale)
		if err != nil {
			return nil, err
		}
		out = append(out, namedBench{b.suite, b.name, c})
	}
	return out, nil
}

// appSATSucceeds locks the circuit with scan-enable obfuscation and
// runs AppSAT against the corrupted scan oracle; success requires a
// functionally correct key.
func appSATSucceeds(ctx context.Context, orig *netlist.Netlist, cfg AttackConfig) (bool, error) {
	res, err := core.Lock(orig, core.Options{
		Blocks: 1, Size: core.Size8x8x8, Seed: cfg.Seed, ScanEnable: true,
	})
	if err != nil {
		return false, err
	}
	sv, err := res.ScanView()
	if err != nil {
		return false, err
	}
	scanOracle, err := activate(sv, res.KeyInputPos, res.Key)
	if err != nil {
		return false, err
	}
	ar, err := attack.AppSAT(res.Locked, res.KeyInputPos, scanOracle, cfg.appSATOptions(ctx))
	if err != nil || ar.Status != attack.KeyFound {
		return false, err
	}
	e, err := functionalError(res, ar.Key, cfg.Seed)
	return err == nil && e == 0, err
}

// OverheadTable reproduces the §III-A overhead claim: 3 blocks of
// 8×8×8 vs 75 blocks of 2×2 at comparable (timeout-grade) resilience.
func OverheadTable() *Table {
	t := &Table{
		Title:  "Overhead: equal-resilience configurations (paper SIII-A)",
		Header: []string{"config", "key bits", "LUTs", "switchboxes", "MTJs", "transistors"},
	}
	add := func(label string, o core.Overhead) {
		t.AddRow(label,
			fmt.Sprintf("%d", o.KeyBits),
			fmt.Sprintf("%d", o.LUTs),
			fmt.Sprintf("%d", o.Switchboxes),
			fmt.Sprintf("%d", o.MTJs),
			fmt.Sprintf("%d", o.Transistors))
	}
	small := core.TotalOverhead(core.Size2x2, 75)
	big := core.TotalOverhead(core.Size8x8x8, 3)
	add("75 x 2x2", small)
	add("3 x 8x8x8", big)
	t.Notes = append(t.Notes, fmt.Sprintf("transistor ratio %.2fx in favour of 3 x 8x8x8", float64(small.Transistors)/float64(big.Transistors)))
	return t
}
