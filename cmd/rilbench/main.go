// Command rilbench regenerates the paper's tables and figures.
//
// Usage:
//
//	rilbench -exp table1 [-timeout 5s] [-scale 0.25] [-counts 1,2,3]
//	rilbench -exp table2|table3|table4|table5|fig1|fig5|fig6|overhead|psca|dip
//	rilbench -exp ablation|onehot|sensitize|ppa|lutsize|dynamic|audit
//	rilbench -exp satruntime -circuit c432,testdata/c17.bench [-counts 1,2]
//	rilbench -exp all
//
// Pass -cache-dir to memoize attack-table cells in the authenticated
// result cache: a repeated run with identical inputs is served from
// disk without re-running oracles or solvers (-no-cache bypasses,
// -cache-max caps the size GC enforces on exit). Every attack table
// runs its cells on the sweep runner, so -jobs, -checkpoint-dir/-resume,
// -cache-dir and -portfolio reach every experiment that runs an
// attack, and SIGINT stops such a table at its next cell.
//
// Runtimes are scaled: the paper used a 5-day timeout on full-size
// benchmarks; pass -scale 1.0 -timeout 120h to approximate that run.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/circuit"
	"repro/internal/netlist"
	"repro/internal/report"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: "+strings.Join(expNames(), "|")+"|all")
		timeout = flag.Duration("timeout", 2*time.Second, "SAT-attack timeout per run (paper: 120h)")
		jobs    = flag.Int("jobs", 0, "parallel attack workers (0 = all CPUs, 1 = sequential)")
		scale   = flag.Float64("scale", 0.25, "benchmark circuit scale in (0,1]")
		seed    = flag.Int64("seed", 1, "deterministic seed")
		counts  = flag.String("counts", "1,2,3,4,5,10,25,50,75,100", "Table I block counts")
		mc      = flag.Int("mc", 100, "Monte-Carlo instances for fig6")
		traces  = flag.Int("traces", 400, "power traces for psca")
		csvDir  = flag.String("csv", "", "also write each table as CSV into this directory")
		jsonDir = flag.String("json", "", "also write each table as JSON into this directory")
		nolint  = flag.Bool("nolint", false, "skip the netlint gate on freshly locked circuits")
		ckptDir = flag.String("checkpoint-dir", "", "persist every attack table's sweep manifest under this directory")
		resume  = flag.Bool("resume", false, "resume from -checkpoint-dir: skip table cells already recorded done")
		pfolio  = flag.Int("portfolio", 1, "race N diversified CDCL workers per solver call in the SAT-attack cells (<2 = sequential)")
		circs   = flag.String("circuit", "", "comma-separated circuits for -exp satruntime: ISCAS profile names and/or .bench file paths")
	)
	var cacheFlags cache.Flags
	cacheFlags.Register(flag.CommandLine)
	flag.Parse()
	if *resume && *ckptDir == "" {
		fmt.Fprintln(os.Stderr, "rilbench: -resume requires -checkpoint-dir")
		os.Exit(1)
	}

	for _, d := range []struct {
		dir  string
		dest *string
	}{{*csvDir, &csvOut}, {*jsonDir, &jsonOut}} {
		if d.dir == "" {
			continue
		}
		if err := os.MkdirAll(d.dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "rilbench:", err)
			os.Exit(1)
		}
		*d.dest = d.dir
	}
	c, err := cacheFlags.Open()
	if err != nil {
		fmt.Fprintln(os.Stderr, "rilbench:", err)
		os.Exit(1)
	}

	// SIGINT/SIGTERM cancels the table sweeps mid-cell: finished cells
	// stay in checkpoints and the cache, cache GC still runs, and the
	// exit is nonzero so scripts see the run did not complete.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	cfg := report.AttackConfig{Timeout: *timeout, Scale: *scale, Seed: *seed, NoLint: *nolint, Jobs: *jobs,
		CheckpointDir: *ckptDir, Resume: *resume, Portfolio: *pfolio, Cache: c, Context: ctx}
	runErr := run(*exp, cfg, *counts, *circs, *mc, *traces)
	if err := cacheFlags.Close(c, os.Stderr, "rilbench"); err != nil {
		fmt.Fprintln(os.Stderr, "rilbench: cache gc:", err)
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "rilbench: interrupted; finished cells are checkpointed, re-run with -resume to continue")
		os.Exit(1)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "rilbench:", runErr)
		os.Exit(1)
	}
}

// csvOut / jsonOut, when set, receive a CSV / JSON copy of every
// printed table.
var csvOut, jsonOut string

var csvSeq int

// show prints a table and writes its CSV and JSON copies.
func show(t *report.Table, err error) error {
	if err != nil {
		return err
	}
	fmt.Println(t.String())
	if csvOut != "" || jsonOut != "" {
		csvSeq++
	}
	if csvOut != "" {
		name := fmt.Sprintf("%s/%02d_%s.csv", csvOut, csvSeq, slug(t.Title))
		f, err := os.Create(name)
		if err != nil {
			return err
		}
		if err := t.WriteCSV(f); err != nil {
			return errors.Join(err, f.Close())
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "rilbench: wrote", name)
	}
	if jsonOut != "" {
		name := fmt.Sprintf("%s/%02d_%s.json", jsonOut, csvSeq, slug(t.Title))
		f, err := os.Create(name)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(t); err != nil {
			return errors.Join(err, f.Close())
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "rilbench: wrote", name)
	}
	return nil
}

// args are the flags the experiments read.
type args struct {
	cfg              report.AttackConfig
	countsCSV, circs string
	mc, traces       int
}

// experiment is one -exp name; all marks the experiments -exp all runs.
type experiment struct {
	name string
	all  bool
	run  func(a args) error
}

// experiments lists every experiment in help order, which is also the
// order -exp all runs its share in.
var experiments = []experiment{
	{"table1", true, func(a args) error {
		counts, err := parseCounts(a.countsCSV)
		if err != nil {
			return err
		}
		return show(report.Table1(a.cfg, counts))
	}},
	{"table2", true, func(args) error { return show(report.Table2(), nil) }},
	{"table3", true, func(a args) error { return show(report.Table3(a.cfg)) }},
	{"table4", true, func(a args) error { return show(report.Table4(a.cfg.Seed)) }},
	{"table5", true, func(a args) error { return show(report.Table5(a.cfg)) }},
	{"fig1", true, func(a args) error { return show(report.Fig1(a.cfg, 8)) }},
	{"fig5", false, func(args) error { return report.Fig5(os.Stdout) }},
	{"fig6", true, func(a args) error {
		t, _ := report.Fig6(a.mc, a.cfg.Seed)
		return show(t, nil)
	}},
	{"overhead", true, func(args) error { return show(report.OverheadTable(), nil) }},
	{"psca", true, func(a args) error { return show(report.PSCATable(a.traces, 0.05, a.cfg.Seed)) }},
	{"satruntime", false, satRuntime},
	{"dip", false, func(a args) error { return show(report.DIPGrowth(a.cfg, []int{4, 6, 8, 10})) }},
	{"ablation", true, func(a args) error { return show(report.Ablation(a.cfg)) }},
	{"onehot", false, func(a args) error { return show(report.OneHotEncoding(a.cfg)) }},
	{"sensitize", false, func(a args) error { return show(report.Sensitization(a.cfg)) }},
	{"ppa", false, func(a args) error { return show(report.PPATable(a.cfg)) }},
	{"lutsize", false, func(a args) error { return show(report.LUTSizeTable(a.cfg, 6)) }},
	{"dynamic", true, func(a args) error { return show(report.DynamicMorphing(a.cfg, 2)) }},
	{"audit", false, func(a args) error { return show(report.ResilienceTable(a.cfg)) }},
}

// expNames lists the experiment names in help order.
func expNames() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return names
}

// selectExps returns the experiments -exp name runs.
func selectExps(name string) ([]experiment, error) {
	var out []experiment
	for _, e := range experiments {
		if e.name == name || (name == "all" && e.all) {
			out = append(out, e)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("unknown experiment %q", name)
	}
	return out, nil
}

func run(exp string, cfg report.AttackConfig, countsCSV, circs string, mc, traces int) error {
	exps, err := selectExps(exp)
	if err != nil {
		return err
	}
	a := args{cfg: cfg, countsCSV: countsCSV, circs: circs, mc: mc, traces: traces}
	for _, e := range exps {
		if err := e.run(a); err != nil {
			return err
		}
	}
	return nil
}

// satRuntime prints the Table I layout for each -circuit.
func satRuntime(a args) error {
	counts, err := parseCounts(a.countsCSV)
	if err != nil {
		return err
	}
	if strings.TrimSpace(a.circs) == "" {
		return fmt.Errorf("-exp satruntime requires -circuit")
	}
	for _, name := range strings.Split(a.circs, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		orig, err := loadCircuit(name, a.cfg.Scale)
		if err != nil {
			return err
		}
		if err := show(report.SATRuntimeTable(a.cfg, orig, counts, nil)); err != nil {
			return err
		}
	}
	return nil
}

// loadCircuit resolves one -circuit element: an ISCAS/ITC profile name
// (synthesized at the configured scale) or a path to a .bench file
// (parsed as-is; scale does not apply to concrete netlists).
func loadCircuit(name string, scale float64) (*netlist.Netlist, error) {
	if prof, ok := circuit.ProfileByName(name); ok {
		return prof.Synthesize(scale)
	}
	f, err := os.Open(name)
	if err != nil {
		return nil, fmt.Errorf("circuit %q is neither a known profile nor a readable file: %w", name, err)
	}
	nl, err := netlist.ParseBench(name, f)
	return nl, errors.Join(err, f.Close())
}

// slug makes a filesystem-friendly name from a table title.
func slug(title string) string {
	var sb strings.Builder
	for _, r := range strings.ToLower(title) {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			sb.WriteRune(r)
		case r == ' ' || r == '-' || r == '_':
			sb.WriteByte('_')
		}
		if sb.Len() >= 40 {
			break
		}
	}
	return strings.Trim(sb.String(), "_")
}

func parseCounts(csv string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(csv, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad count %q", f)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no counts given")
	}
	return out, nil
}
