// Command satattack mounts the oracle-guided SAT attack (or AppSAT)
// against one or more locked .bench netlists. The oracle is built from
// each locked netlist plus the correct key file produced by cmd/locker
// (in the paper's threat model the attacker has physical oracle
// access; here the activated chip is simulated).
//
// Usage:
//
//	satattack -locked locked.bench -key key.txt [-timeout 10s] [-appsat]
//	satattack -locked a.bench,b.bench,c.bench -key a.key,b.key,c.key \
//	          -jobs 4 -json results.json
//
// Every target is a sweep job, so one target and many run alike: on
// -jobs workers (0 = all CPUs), with -timeout per target plus 30 s of
// headroom as the job's deadline (none with -timeout 0), and with
// panic isolation. One target gets the full report; a sweep gets one
// line per target. -json writes the full machine-readable results
// (status, key, DIP count, oracle queries, CDCL solver statistics) to
// a file, or to stdout with "-json -", which moves the report to
// stderr so that stdout holds only the JSON.
//
// -checkpoint-dir makes the attack crash-safe: every DIP and oracle
// response is journaled (fsync per record) to a per-target file in the
// directory (attack.JournalPath), created if need be, and a finished
// attack ends its journal with a done record. Re-running with -resume
// replays each journal without re-querying the oracle: a finished
// target's done record answers with no solver call, and any other
// journal is replayed and the attack continues, its -timeout counting
// the whole attack. A journal written for another netlist or options,
// or a corrupt one, degrades to a fresh attack with a warning, never
// an error.
//
// -cache-dir memoizes finished targets in the checksummed result
// cache, keyed by the locked netlist, key file and attack options:
// re-attacking an unchanged target is answered from disk with zero
// oracle queries and zero solver calls (-cache-max caps the size
// enforced by GC on exit; without -cache-dir every target runs live).
// An edited target or another budget is another key, so the cache
// never answers for other work.
// -sensitize, -removal and -trace take a single target and always run
// live.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/attack"
	"repro/internal/cache"
	"repro/internal/sat"
	"repro/internal/sweep"
)

// targetResult is the machine-readable outcome for one locked netlist.
type targetResult struct {
	Target     string    `json:"target"`
	KeyBits    int       `json:"key_bits"`
	Status     string    `json:"status"`
	Key        string    `json:"key,omitempty"`
	Iterations int       `json:"iterations"`
	Queries    int       `json:"queries"`
	Replayed   int       `json:"replayed,omitempty"`
	ErrorRate  float64   `json:"error_rate"`
	Solver     sat.Stats `json:"solver"`
}

// options are the flags that shape every target's attack.
type options struct {
	prefix    string
	timeout   time.Duration
	portfolio int
	appsat    bool
	bva       bool
	resume    bool
	sensitize bool
	removal   bool
	trace     string
}

func main() {
	// SIGINT/SIGTERM cancels the attack context: running solver loops
	// stop at the next DIP boundary, journals keep what they paid for,
	// and cache GC still runs before the nonzero exit. A second signal
	// kills immediately.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stopSignals()
	os.Exit(code)
}

// run drives the command as main does, minus the signal wiring and
// os.Exit: it returns the exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("satattack", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		lockedPath = fs.String("locked", "", "locked .bench netlist, or comma-separated list for a sweep")
		keyPath    = fs.String("key", "", "key file (name=bit per line), or comma-separated list matching -locked")
		prefix     = fs.String("keyprefix", "keyinput", "key input name prefix")
		timeout    = fs.Duration("timeout", 10*time.Second, "attack timeout per target (paper: 120h)")
		jobs       = fs.Int("jobs", 0, "parallel attack workers for multi-target sweeps (0 = all CPUs)")
		jsonOut    = fs.String("json", "", "write JSON results to this file ('-' = stdout)")
		appsat     = fs.Bool("appsat", false, "run AppSAT instead of the exact SAT attack")
		bva        = fs.Bool("bva", false, "apply BVA preprocessing to the encoding")
		sensitize  = fs.Bool("sensitize", false, "run the key-sensitization attack instead")
		removal    = fs.Bool("removal", false, "run the structural removal attack instead")
		tracePath  = fs.String("trace", "", "write a per-DIP CSV trace (iteration,dip,oracle) to this file")
		portfolio  = fs.Int("portfolio", 1, "race N diversified CDCL workers per solver call (exact SAT attack only; <2 = sequential)")
		ckptDir    = fs.String("checkpoint-dir", "", "journal each target's DIP progress into this directory")
		resume     = fs.Bool("resume", false, "resume from -checkpoint-dir: replay each target's journal without re-querying the oracle")
	)
	var cacheFlags cache.Flags
	cacheFlags.Register(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "satattack:", err)
		return 1
	}

	if *lockedPath == "" || *keyPath == "" {
		fmt.Fprintln(stderr, "satattack: -locked and -key are required")
		return 2
	}
	if *resume && *ckptDir == "" {
		fmt.Fprintln(stderr, "satattack: -resume requires -checkpoint-dir")
		return 2
	}
	if *ckptDir != "" && (*appsat || *sensitize || *removal) {
		return fail(fmt.Errorf("-checkpoint-dir supports the exact SAT attack only"))
	}
	if *portfolio >= 2 && (*appsat || *sensitize || *removal) {
		return fail(fmt.Errorf("-portfolio supports the exact SAT attack only"))
	}
	o := options{prefix: *prefix, timeout: *timeout, portfolio: *portfolio, appsat: *appsat, bva: *bva,
		resume: *resume, sensitize: *sensitize, removal: *removal, trace: *tracePath}

	lockedList := splitList(*lockedPath)
	keyList := splitList(*keyPath)
	if len(keyList) == 1 && len(lockedList) > 1 {
		// One key file shared by every target.
		for len(keyList) < len(lockedList) {
			keyList = append(keyList, keyList[0])
		}
	}
	if len(keyList) != len(lockedList) {
		return fail(fmt.Errorf("%d locked netlists but %d key files", len(lockedList), len(keyList)))
	}
	if len(lockedList) > 1 && (o.sensitize || o.removal || o.trace != "") {
		return fail(fmt.Errorf("-sensitize, -removal and -trace support a single target only"))
	}

	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			return fail(err)
		}
	}

	c, err := cacheFlags.Open()
	if err != nil {
		return fail(err)
	}
	a := &attacker{options: o, out: stdout, stderr: stderr}
	if *jsonOut == "-" {
		a.out = stderr // stdout holds only the JSON
	}
	var jobList []sweep.Job
	for i := range lockedList {
		tg := readTarget(lockedList[i], keyList[i])
		if len(lockedList) == 1 {
			a.single = tg
		}
		journal := ""
		if *ckptDir != "" {
			journal = attack.JournalPath(*ckptDir, tg.locked)
		}
		jobList = append(jobList, sweep.Job{Name: tg.locked, Timeout: jobTimeout(o.timeout), CacheKey: targetCacheKey(c, tg, o),
			Run: func(ctx context.Context) (any, error) { return a.attack(ctx, tg, journal) }})
	}
	results := (&sweep.Runner{Workers: *jobs, Cache: c, Progress: a.progress}).Run(ctx, jobList)
	if err := cacheFlags.Close(c, stderr, "satattack"); err != nil {
		fmt.Fprintln(stderr, "satattack: cache gc:", err)
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, stdout, stderr, results); err != nil {
			return fail(err)
		}
	}
	if ctx.Err() != nil {
		fmt.Fprintln(stderr, "satattack: interrupted; journals and cache are flushed, re-run with -resume to continue")
		return 1
	}
	if errs := sweep.Errs(results); len(errs) > 0 {
		fmt.Fprintf(stderr, "satattack: %d/%d targets failed\n", len(errs), len(results))
		return 1
	}
	return 0
}

// jobTimeout is a target's job deadline: 30 s of headroom over the
// attack's own budget, so that a budget that runs out ends the attack
// with Status Timeout (the paper's ∞) rather than at the deadline. An
// attack without a budget gets no deadline.
func jobTimeout(budget time.Duration) time.Duration {
	if budget == 0 {
		return 0
	}
	return budget + 30*time.Second
}

// target is one locked netlist and its key file, each read once: the
// bytes key the result cache and feed the loader.
type target struct {
	locked, key    string // the paths
	bench, keyText []byte
	err            error // from reading either file
}

func readTarget(lockedPath, keyPath string) *target {
	tg := &target{locked: lockedPath, key: keyPath}
	if tg.bench, tg.err = os.ReadFile(lockedPath); tg.err == nil {
		tg.keyText, tg.err = os.ReadFile(keyPath)
	}
	return tg
}

// load parses the target. It runs at most once per target: in the job
// that attacks it, or for the header of a single target the cache
// serves.
func (tg *target) load(prefix string) (*attack.Target, error) {
	if tg.err != nil {
		return nil, tg.err
	}
	return attack.LoadTarget(tg.locked, string(tg.bench), tg.key, string(tg.keyText), prefix)
}

// targetCacheKey derives the content-addressed cache key for one
// attack target: the raw bytes of the locked netlist and key files
// plus every option that shapes the attack and the attack's search
// version. Returns the zero Key, opting the target out of caching,
// when the cache is off, a file could not be read, or the run is a
// sensitization, removal or -trace run (whose point is the side-effect
// trace file).
func targetCacheKey(c *cache.Cache, tg *target, o options) cache.Key {
	if c == nil || tg.err != nil || o.sensitize || o.removal || o.trace != "" {
		return cache.Key{}
	}
	k, err := cache.NewKey("satattack-target").
		Bytes("locked", tg.bench).
		Bytes("key", tg.keyText).
		Options("opts", map[string]any{
			"prefix":    o.prefix,
			"timeout":   o.timeout.Nanoseconds(),
			"portfolio": o.portfolio,
			"appsat":    o.appsat,
			"bva":       o.bva,
			"search":    attack.SearchVersion,
		}).
		Key()
	if err != nil {
		return cache.Key{}
	}
	return k
}

// attacker runs every target with the same options and reports each
// outcome as its job finishes: the full report for a single target,
// one line per target for a sweep.
type attacker struct {
	options
	mu          sync.Mutex
	out, stderr io.Writer // out is stderr too when -json - takes stdout
	single      *target   // the only target, or nil for a sweep
}

// attack loads one target and runs the selected attack on it. The
// sensitization and removal attacks return their one-line report; the
// SAT attack (AppSAT with -appsat) returns the JSON summary. With
// journal set the exact attack journals every DIP there, and -resume
// replays an existing journal first.
func (a *attacker) attack(ctx context.Context, tg *target, journal string) (_ any, err error) {
	t, err := tg.load(a.prefix)
	if err != nil {
		return nil, err
	}
	if a.single != nil {
		a.header(t)
	}
	switch {
	case a.sensitize:
		res, err := attack.Sensitize(t.Locked, t.KeyPos, t.Oracle, 16, a.timeout)
		if err != nil {
			return nil, err
		}
		return res.String(), nil
	case a.removal:
		stripped, err := attack.StructuralRemoval(t.Locked, t.KeyPos, 1)
		if err != nil {
			return nil, err
		}
		strippedOracle, err := attack.NewSimOracle(stripped)
		if err != nil {
			return nil, err
		}
		e, err := attack.OracleErrorRate(strippedOracle, t.Oracle, 16, 2)
		if err != nil {
			return nil, err
		}
		return fmt.Sprintf("removal attack output error rate %.6f (0 = circuit recovered exactly)", e), nil
	}
	opts := attack.SATOptions{Timeout: a.timeout, BVA: a.bva, Context: ctx, Portfolio: a.portfolio}
	if a.trace != "" {
		f, err := os.Create(a.trace)
		if err != nil {
			return nil, err
		}
		defer func() { err = errors.Join(err, f.Close()) }()
		opts.Trace = f
	}
	r, err := t.Run(attack.RunOptions{SAT: opts, AppSAT: a.appsat, Journal: journal, Resume: a.resume,
		Logf:   func(format string, args ...any) { fmt.Fprintln(a.stderr, "satattack: "+fmt.Sprintf(format, args...)) },
		Verify: true})
	if err != nil {
		return nil, err
	}
	return &targetResult{Target: tg.locked, KeyBits: len(t.KeyPos), Status: r.Status.String(), Key: r.Key,
		Iterations: r.Iterations, Queries: r.Queries, Replayed: r.Replayed, ErrorRate: r.ErrorRate, Solver: r.Solver}, nil
}

// header prints a single target's shape and budget ahead of its report.
func (a *attacker) header(t *attack.Target) {
	fmt.Fprintf(a.out, "satattack: %d key bits, %d functional inputs, %d outputs, timeout %v\n",
		len(t.KeyPos), len(t.Locked.Inputs)-len(t.KeyPos), len(t.Locked.Outputs), a.timeout)
}

// progress reports one finished job; the runner calls it from its
// workers.
func (a *attacker) progress(res sweep.Result) {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch {
	case res.Err != nil:
		fmt.Fprintf(a.stderr, "satattack: %s: FAILED: %v\n", res.Name, res.Err)
	case a.single != nil:
		a.report(res)
	case res.Cached:
		fmt.Fprintf(a.out, "satattack: %s: served from result cache\n", res.Name)
	default:
		tr := res.Value.(*targetResult)
		fmt.Fprintf(a.out, "satattack: %s: %s after %d DIPs, %d oracle queries (%d replayed), %.2fs\n",
			tr.Target, tr.Status, tr.Iterations, tr.Queries, tr.Replayed, res.Seconds)
	}
}

// report prints the single target's full report.
func (a *attacker) report(res sweep.Result) {
	var tr targetResult
	switch v := res.Value.(type) {
	case string: // the sensitization or removal report
		fmt.Fprintln(a.out, "satattack:", v)
		return
	case *targetResult:
		tr = *v
	case json.RawMessage: // the value a previous run cached
		if err := json.Unmarshal(v, &tr); err != nil {
			fmt.Fprintf(a.stderr, "satattack: %s: cached result: %v\n", res.Name, err)
			return
		}
	}
	if res.Cached {
		if t, err := a.single.load(a.prefix); err == nil {
			a.header(t)
		}
		fmt.Fprintf(a.out, "satattack: result served from cache (no oracle queries, no solver calls; originally %.2fs)\n", res.Seconds)
	}
	fmt.Fprintf(a.out, "satattack: %s after %d DIPs in %v (%+v)\n", tr.Status, tr.Iterations,
		time.Duration(res.Seconds*float64(time.Second)).Round(time.Millisecond), tr.Solver)
	fmt.Fprintf(a.out, "satattack: oracle queries: %d (%d replayed from journal)\n", tr.Queries, tr.Replayed)
	if tr.Key != "" {
		fmt.Fprintf(a.out, "satattack: recovered key verified, error rate %.6f\n", tr.ErrorRate)
		fmt.Fprintln(a.out, "satattack: key =", tr.Key)
	} else {
		fmt.Fprintln(a.out, "satattack: TIMEOUT — the paper reports this outcome as infinity")
	}
}

func writeJSON(path string, stdout, stderr io.Writer, results []sweep.Result) error {
	if path == "-" {
		return sweep.WriteJSON(stdout, results)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	fmt.Fprintln(stderr, "satattack: writing", path)
	if err := sweep.WriteJSON(f, results); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
