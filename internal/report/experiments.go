package report

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/attack"
	"repro/internal/cache"
	"repro/internal/circuit"
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
	// CheckpointDir, when set, appends every table sweep's per-job
	// completions to the log <CheckpointDir>/<table-scope>/manifest.json
	// so a killed run can resume. Resume loads those manifests, cuts a
	// line torn by the kill, and skips the jobs they record done; a
	// corrupt manifest degrades to re-running that table from scratch.
	CheckpointDir string
	Resume        bool
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
	// zero oracle queries and zero solver calls.
	Cache *cache.Cache
}

// runSweep executes the table's attack jobs on the sweep worker pool
// and fails the whole table on the first job error (matching the
// sequential error behaviour the tables had before parallelization).
// The scope names the table's private checkpoint subdirectory when
// AttackConfig.CheckpointDir is set; distinct tables must use distinct
// scopes so their manifests never clobber each other.
func runSweep(cfg AttackConfig, scope string, jobs []sweep.Job) ([]sweep.Result, error) {
	r := &sweep.Runner{Workers: cfg.Jobs, Cache: cfg.Cache}
	if cfg.CheckpointDir != "" {
		dir := filepath.Join(cfg.CheckpointDir, scope)
		var ckpt *sweep.Checkpoint
		var err error
		if cfg.Resume {
			ckpt, err = sweep.ResumeCheckpoint(dir)
		} else {
			ckpt, err = sweep.NewCheckpoint(dir)
		}
		if err != nil {
			return nil, err
		}
		r.Checkpoint = ckpt
	}
	results := r.Run(cfg.Context, jobs)
	if err := sweep.FirstErr(results); err != nil {
		return nil, err
	}
	return results, nil
}

// cellValue decodes one sweep result's table payload of type T. A live
// job returns T directly; a job skipped on resume carries the
// manifest's recorded JSON instead, which decodes back into T.
func cellValue[T any](res sweep.Result) (T, error) {
	var zero T
	if v, ok := res.Value.(T); ok {
		return v, nil
	}
	raw, ok := res.Value.(json.RawMessage)
	if !ok {
		return zero, fmt.Errorf("report: job %q result is %T, want %T", res.Name, res.Value, zero)
	}
	var v T
	if err := json.Unmarshal(raw, &v); err != nil {
		return zero, fmt.Errorf("report: job %q checkpointed result: %w", res.Name, err)
	}
	return v, nil
}

// scopeSlug renders a circuit name as a checkpoint/cache scope
// component: lower-case alphanumerics with runs of anything else
// collapsed to '-', so "testdata/c17.bench" and "c432" both produce a
// single safe path element.
func scopeSlug(name string) string {
	var b strings.Builder
	dash := false
	for _, r := range strings.ToLower(name) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
			dash = false
		default:
			if !dash && b.Len() > 0 {
				b.WriteByte('-')
				dash = true
			}
		}
	}
	return strings.TrimRight(b.String(), "-")
}

// cellKey derives the content-addressed cache key for one attack-table
// cell. Everything that determines the cell's value is folded in: the
// circuit's canonical netlist digest (cache.NetlistSum, computed once
// per circuit and shared by all of a table's cells on it), the cell
// options (block count, LUT size, ...), the AttackConfig knobs that
// change the outcome (timeout, portfolio, the lint gate, the lock seed)
// and the attack's search version (a DIP count belongs to one search).
// It returns the zero Key — which opts the job out of caching — when
// cfg.Cache is nil or the key cannot be built, so callers can assign it
// unconditionally.
func cellKey(cfg AttackConfig, kind string, sum cache.Digest, opts map[string]any) cache.Key {
	if cfg.Cache == nil {
		return cache.Key{}
	}
	k, err := cache.NewKey(kind).
		NetlistSum("circuit", sum).
		Options("cell", opts).
		Options("attack", map[string]any{
			"timeout":   cfg.Timeout.Nanoseconds(),
			"portfolio": cfg.Portfolio,
			"nolint":    cfg.NoLint,
			"search":    attack.SearchVersion,
		}).
		Int("seed", cfg.Seed).
		Key()
	if err != nil {
		return cache.Key{}
	}
	return k
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

// lockAndAttack locks the circuit and runs the SAT attack against an
// honest oracle (static operational mode, paper Table I/III). The
// context cancels the attack mid-solve; the seed fixes the lock, so a
// given (circuit, blocks, size, seed) cell is reproducible no matter
// which sweep worker runs it.
func lockAndAttack(ctx context.Context, orig *netlist.Netlist, blocks int, size core.Size, cfg AttackConfig) (*attack.SATResult, error) {
	res, err := core.Lock(orig, core.Options{Blocks: blocks, Size: size, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	if err := lintLock(res, cfg); err != nil {
		return nil, err
	}
	bound, err := res.ApplyKey(res.Key)
	if err != nil {
		return nil, err
	}
	oracle, err := attack.NewSimOracle(bound)
	if err != nil {
		return nil, err
	}
	return attack.SATAttack(res.Locked, res.KeyInputPos, oracle,
		attack.SATOptions{Timeout: cfg.Timeout, Context: ctx, Portfolio: cfg.Portfolio})
}

// Table1 reproduces paper Table I: SAT-attack runtime for c7552 locked
// with {counts} RIL-Blocks of sizes 2×2, 8×8 and 8×8×8.
func Table1(cfg AttackConfig, counts []int) (*Table, error) {
	prof, _ := circuit.ProfileByName("c7552")
	orig, err := prof.Synthesize(cfg.Scale)
	if err != nil {
		return nil, err
	}
	t, err := satRuntimeTable(cfg, "table1", orig, counts, nil)
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
	return satRuntimeTable(cfg, "satruntime-"+scopeSlug(orig.Name), orig, counts, sizes)
}

func satRuntimeTable(cfg AttackConfig, scope string, orig *netlist.Netlist, counts []int, sizes []core.Size) (*Table, error) {
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
		Title:  fmt.Sprintf("SAT-attack runtime (s) on %s vs RIL-Block count and size", orig.Name),
		Header: header,
		Notes: []string{
			fmt.Sprintf("scale=%.2f timeout=%v ('inf' = timeout, 'n/a' = circuit cannot host the blocks)", cfg.Scale, cfg.Timeout),
		},
	}
	sum := cache.NetlistSum(orig)
	// One sweep job per (block count, size) cell. A cell whose lock
	// fails renders "n/a" (some circuits cannot host the blocks), so
	// lock errors stay cell-local instead of failing the table.
	var jobs []sweep.Job
	for _, n := range counts {
		for _, size := range sizes {
			n, size := n, size
			jobs = append(jobs, sweep.Job{
				Name: fmt.Sprintf("%s/%d/%s", scope, n, size),
				Seed: cfg.Seed,
				CacheKey: cellKey(cfg, "sat-runtime-cell", sum,
					map[string]any{"blocks": n, "size": size.String()}),
				Run: func(ctx context.Context, _ int64) (any, error) {
					res, err := lockAndAttack(ctx, orig, n, size, cfg)
					switch {
					case err != nil:
						return "n/a", nil
					case res.Status == attack.KeyFound:
						return fmtDuration(res.Elapsed, false), nil
					default:
						return fmtDuration(res.Elapsed, true), nil
					}
				},
			})
		}
	}
	results, err := runSweep(cfg, scope, jobs)
	if err != nil {
		return nil, err
	}
	for i, n := range counts {
		row := []string{fmt.Sprintf("%d", n)}
		for j := range sizes {
			cell, err := cellValue[string](results[i*len(sizes)+j])
			if err != nil {
				return nil, err
			}
			row = append(row, cell)
		}
		t.AddRow(row...)
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
	var jobs []sweep.Job
	for _, b := range benches {
		b := b
		sum := cache.NetlistSum(b.nl)
		for _, blocks := range []int{1, 2, 3} {
			blocks := blocks
			jobs = append(jobs, sweep.Job{
				Name: fmt.Sprintf("table3/%s/%dblk", b.name, blocks),
				Seed: cfg.Seed,
				CacheKey: cellKey(cfg, "sat-runtime-cell", sum,
					map[string]any{"blocks": blocks, "size": core.Size8x8x8.String()}),
				Run: func(ctx context.Context, _ int64) (any, error) {
					res, err := lockAndAttack(ctx, b.nl, blocks, core.Size8x8x8, cfg)
					switch {
					case err != nil:
						return "n/a", nil
					case res.Status == attack.KeyFound:
						return fmtDuration(res.Elapsed, false), nil
					default:
						return fmtDuration(res.Elapsed, true), nil
					}
				},
			})
		}
		jobs = append(jobs, sweep.Job{
			Name: fmt.Sprintf("table3/%s/appsat", b.name),
			Seed: cfg.Seed,
			CacheKey: cellKey(cfg, "appsat-scan-cell", sum,
				map[string]any{"blocks": 1, "size": core.Size8x8x8.String(), "maxrounds": 16}),
			Run: func(ctx context.Context, _ int64) (any, error) {
				ok, err := appSATSucceeds(ctx, b.nl, cfg)
				if err != nil {
					return nil, err
				}
				if ok {
					return "yes", nil
				}
				return "x", nil
			},
		})
	}
	results, err := runSweep(cfg, "table3", jobs)
	if err != nil {
		return nil, err
	}
	for i, b := range benches {
		row := []string{b.suite, b.name}
		for j := 0; j < perBench; j++ {
			cell, err := cellValue[string](results[i*perBench+j])
			if err != nil {
				return nil, err
			}
			row = append(row, cell)
		}
		t.AddRow(row...)
	}
	return t, nil
}

type namedBench struct {
	suite, name string
	nl          *netlist.Netlist
}

func table3Suite(scale float64) ([]namedBench, error) {
	var out []namedBench
	for _, name := range []string{"b15", "s35932", "s38584", "b20"} {
		prof, ok := circuit.ProfileByName(name)
		if !ok {
			return nil, fmt.Errorf("report: missing profile %s", name)
		}
		nl, err := prof.Synthesize(scale)
		if err != nil {
			return nil, err
		}
		out = append(out, namedBench{"ISCAS/ITC", name, nl})
	}
	cepScale := "small"
	if scale > 0.5 {
		cepScale = "full"
	}
	cep, err := circuit.CEPSuite(cepScale)
	if err != nil {
		return nil, err
	}
	for _, name := range []string{"AES", "SHA-256", "MD5", "GPS", "DES", "FIR"} {
		out = append(out, namedBench{"CEP", name, cep[name]})
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
	svBound, err := sv.BindInputs(res.KeyInputPos, res.Key)
	if err != nil {
		return false, err
	}
	scanOracle, err := attack.NewSimOracle(svBound)
	if err != nil {
		return false, err
	}
	opt := attack.DefaultAppSAT()
	opt.Timeout = cfg.Timeout
	opt.Context = ctx
	opt.MaxRounds = 16
	ar, err := attack.AppSAT(res.Locked, res.KeyInputPos, scanOracle, opt)
	if err != nil {
		return false, err
	}
	if ar.Status != attack.KeyFound {
		return false, nil
	}
	// Validate against the real functional circuit. The validation
	// oracle is deliberately separate from scanOracle: the 8×64
	// verification patterns must never inflate the attack oracle's
	// query count (the quantity the paper's tables budget).
	fBound, err := res.ApplyKey(res.Key)
	if err != nil {
		return false, err
	}
	funcOracle, err := attack.NewSimOracle(fBound)
	if err != nil {
		return false, err
	}
	e, err := attack.VerifyKey(res.Locked, res.KeyInputPos, ar.Key, funcOracle, 8, cfg.Seed)
	if err != nil {
		return false, err
	}
	return e == 0, nil
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
