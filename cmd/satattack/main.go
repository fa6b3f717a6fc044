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
// With comma-separated -locked/-key lists the targets run as a
// parallel sweep on -jobs workers (0 = all CPUs); -timeout applies per
// target. -json writes the full machine-readable results (status, key,
// DIP count, oracle queries, CDCL solver statistics) to a file, or to
// stdout with "-json -".
//
// -checkpoint-dir makes the attack crash-safe: every DIP and oracle
// response is journaled (fsync per record) to a per-target file in the
// directory, and sweeps record per-job completion in a manifest.
// Re-running with -resume skips targets the manifest records done and
// replays each partial journal without re-querying the oracle, then
// continues the attack. Corrupt checkpoint files degrade to a fresh
// start with a warning, never an error.
//
// -cache-dir memoizes finished targets in the authenticated result
// cache, keyed by the locked netlist, key file and attack options:
// re-attacking an unchanged target is answered from disk with zero
// oracle queries and zero solver calls (-no-cache bypasses, -cache-max
// caps the size enforced by GC on exit).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
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
}

func main() {
	var (
		lockedPath = flag.String("locked", "", "locked .bench netlist, or comma-separated list for a sweep")
		keyPath    = flag.String("key", "", "key file (name=bit per line), or comma-separated list matching -locked")
		prefix     = flag.String("keyprefix", "keyinput", "key input name prefix")
		timeout    = flag.Duration("timeout", 10*time.Second, "attack timeout per target (paper: 120h)")
		jobs       = flag.Int("jobs", 0, "parallel attack workers for multi-target sweeps (0 = all CPUs)")
		jsonOut    = flag.String("json", "", "write JSON results to this file ('-' = stdout)")
		appsat     = flag.Bool("appsat", false, "run AppSAT instead of the exact SAT attack")
		bva        = flag.Bool("bva", false, "apply BVA preprocessing to the encoding")
		sensitize  = flag.Bool("sensitize", false, "run the key-sensitization attack instead")
		removal    = flag.Bool("removal", false, "run the structural removal attack instead")
		tracePath  = flag.String("trace", "", "write a per-DIP CSV trace (iteration,dip,oracle) to this file")
		portfolio  = flag.Int("portfolio", 1, "race N diversified CDCL workers per solver call (exact SAT attack only; <2 = sequential)")
		ckptDir    = flag.String("checkpoint-dir", "", "journal DIP progress (and sweep manifest) into this directory")
		resume     = flag.Bool("resume", false, "resume from -checkpoint-dir: skip done targets, replay partial journals")
	)
	var cacheFlags cache.Flags
	cacheFlags.Register(flag.CommandLine)
	flag.Parse()

	// SIGINT/SIGTERM cancels the attack context: running solver loops
	// stop at the next DIP boundary, journals keep what they paid for,
	// and cache GC still runs before the nonzero exit. A second signal
	// kills immediately.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	if *lockedPath == "" || *keyPath == "" {
		fmt.Fprintln(os.Stderr, "satattack: -locked and -key are required")
		os.Exit(2)
	}
	if *resume && *ckptDir == "" {
		fmt.Fprintln(os.Stderr, "satattack: -resume requires -checkpoint-dir")
		os.Exit(2)
	}
	if *ckptDir != "" && (*appsat || *sensitize || *removal) {
		fail(fmt.Errorf("-checkpoint-dir supports the exact SAT attack only"))
	}
	if *portfolio >= 2 && (*appsat || *sensitize || *removal) {
		fail(fmt.Errorf("-portfolio supports the exact SAT attack only"))
	}
	o := options{prefix: *prefix, timeout: *timeout, portfolio: *portfolio, appsat: *appsat, bva: *bva, resume: *resume}

	lockedList := splitList(*lockedPath)
	keyList := splitList(*keyPath)
	if len(keyList) == 1 && len(lockedList) > 1 {
		// One key file shared by every target.
		for len(keyList) < len(lockedList) {
			keyList = append(keyList, keyList[0])
		}
	}
	if len(keyList) != len(lockedList) {
		fail(fmt.Errorf("%d locked netlists but %d key files", len(lockedList), len(keyList)))
	}
	if len(lockedList) > 1 && (*sensitize || *removal || *tracePath != "") {
		fail(fmt.Errorf("-sensitize, -removal and -trace support a single target only"))
	}

	var ckpt *sweep.Checkpoint
	if *ckptDir != "" {
		var err error
		if *resume {
			ckpt, err = sweep.ResumeCheckpoint(*ckptDir)
		} else {
			ckpt, err = sweep.NewCheckpoint(*ckptDir)
		}
		if err != nil {
			fail(err)
		}
		if ckpt.Degraded() {
			fmt.Fprintln(os.Stderr, "satattack: checkpoint manifest corrupt, re-running all targets")
		}
	}

	c, err := cacheFlags.Open()
	if err != nil {
		fail(err)
	}
	if len(lockedList) == 1 {
		runErr := runSingle(ctx, lockedList[0], keyList[0], o, *sensitize, *removal, *tracePath, *jsonOut, ckpt, c)
		if err := cacheFlags.Close(c, os.Stderr, "satattack"); err != nil {
			fmt.Fprintln(os.Stderr, "satattack: cache gc:", err)
		}
		if runErr != nil {
			failInterruptible(ctx, runErr)
		}
		return
	}

	var jobList []sweep.Job
	for i := range lockedList {
		lockedPath, keyPath := lockedList[i], keyList[i]
		bench, key, readErr := readTarget(lockedPath, keyPath)
		var ck cache.Key
		if readErr == nil {
			ck = targetCacheKey(c, bench, key, o)
		}
		jobList = append(jobList, sweep.Job{
			Name:     lockedPath,
			Seed:     sweep.DeriveSeed(1, i),
			Timeout:  *timeout + 30*time.Second, // headroom over the attack's own deadline
			CacheKey: ck,
			Run: func(ctx context.Context, _ int64) (any, error) {
				if readErr != nil {
					return nil, readErr
				}
				t, err := attack.LoadTarget(lockedPath, string(bench), keyPath, string(key), o.prefix)
				if err != nil {
					return nil, err
				}
				return attackOne(ctx, lockedPath, t, o, nil, jobJournalPath(ckpt, lockedPath))
			},
		})
	}
	runner := &sweep.Runner{
		Workers:    *jobs,
		Checkpoint: ckpt,
		Cache:      c,
		Progress: func(res sweep.Result) {
			if res.Err != nil {
				fmt.Fprintf(os.Stderr, "satattack: %s: FAILED: %v\n", res.Name, res.Err)
				return
			}
			if res.Resumed {
				fmt.Printf("satattack: %s: done in a previous run, skipped\n", res.Name)
				return
			}
			if res.Cached {
				fmt.Printf("satattack: %s: served from result cache\n", res.Name)
				return
			}
			tr := res.Value.(*targetResult)
			fmt.Printf("satattack: %s: %s after %d DIPs, %d oracle queries (%d replayed), %.2fs\n",
				tr.Target, tr.Status, tr.Iterations, tr.Queries, tr.Replayed, res.Seconds)
		},
	}
	results := runner.Run(ctx, jobList)
	if err := cacheFlags.Close(c, os.Stderr, "satattack"); err != nil {
		fmt.Fprintln(os.Stderr, "satattack: cache gc:", err)
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, results); err != nil {
			fail(err)
		}
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "satattack: interrupted; journals and cache are flushed, re-run with -resume to continue")
		os.Exit(1)
	}
	if errs := sweep.Errs(results); len(errs) > 0 {
		fmt.Fprintf(os.Stderr, "satattack: %d/%d targets failed\n", len(errs), len(results))
		os.Exit(1)
	}
	if ckpt != nil && sweep.FirstErr(results) == nil {
		fmt.Fprintf(os.Stderr, "satattack: sweep complete, manifest at %s\n", sweep.ManifestPath(ckpt.Dir()))
	}
}

// readTarget reads one target's locked netlist and key file. Each is
// read once: the bytes key the result cache and feed the loader.
func readTarget(lockedPath, keyPath string) (bench, key []byte, err error) {
	if bench, err = os.ReadFile(lockedPath); err != nil {
		return nil, nil, err
	}
	if key, err = os.ReadFile(keyPath); err != nil {
		return nil, nil, err
	}
	return bench, key, nil
}

// targetCacheKey derives the content-addressed cache key for one
// attack target: the raw bytes of the locked netlist and key files
// plus every option that shapes the attack and the attack's search
// version. Returns the zero Key, opting the target out of caching,
// when the cache is off.
func targetCacheKey(c *cache.Cache, bench, key []byte, o options) cache.Key {
	if c == nil {
		return cache.Key{}
	}
	k, err := cache.NewKey("satattack-target").
		Bytes("locked", bench).
		Bytes("key", key).
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

// jobJournalPath maps a sweep job onto its journal file, or "" when
// checkpointing is off.
func jobJournalPath(ckpt *sweep.Checkpoint, name string) string {
	if ckpt == nil {
		return ""
	}
	return ckpt.JobFile(name)
}

// logf reports a journal the attack had to replace.
func logf(format string, args ...any) {
	fmt.Fprintln(os.Stderr, "satattack: "+fmt.Sprintf(format, args...))
}

// attackOne runs the selected attack on one loaded target and returns
// the JSON summary. With journalPath set the exact attack journals
// every DIP there, and o.resume replays an existing journal first.
func attackOne(ctx context.Context, name string, t *attack.Target, o options,
	trace *os.File, journalPath string) (*targetResult, error) {
	tr := &targetResult{Target: name, KeyBits: len(t.KeyPos)}
	var status attack.Status
	var recovered []bool
	if o.appsat {
		opt := attack.DefaultAppSAT()
		opt.Timeout = o.timeout
		opt.Context = ctx
		res, err := attack.AppSAT(t.Locked, t.KeyPos, t.Oracle, opt)
		if err != nil {
			return nil, err
		}
		status, recovered, tr.Iterations = res.Status, res.Key, res.DIPs
	} else {
		opts := attack.SATOptions{Timeout: o.timeout, BVA: o.bva, Context: ctx, Portfolio: o.portfolio}
		if trace != nil {
			opts.Trace = trace
		}
		res, err := attack.JournaledSATAttack(journalPath, o.resume, logf, t.Locked, t.KeyPos, t.Oracle, opts)
		if err != nil {
			return nil, err
		}
		status, recovered, tr.Iterations, tr.Replayed, tr.Solver =
			res.Status, res.Key, res.Iterations, res.Replayed, res.Solver
	}
	tr.Status = status.String()
	tr.Queries = t.Oracle.Queries()
	if status == attack.KeyFound {
		tr.Key = attack.BitString(recovered)
		e, err := attack.VerifyKey(t.Locked, t.KeyPos, recovered, t.Oracle, 16, 1)
		if err != nil {
			return nil, err
		}
		tr.ErrorRate = e
	}
	return tr, nil
}

// failInterruptible reports err and exits nonzero, labelling the
// signal-cancelled case explicitly.
func failInterruptible(ctx context.Context, err error) {
	if ctx.Err() != nil && errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "satattack: interrupted; journals and cache are flushed, re-run with -resume to continue")
		os.Exit(1)
	}
	fail(err)
}

// runSingle preserves the original single-target output format. The
// result cache applies to the standard SAT/AppSAT attack only; the
// sensitization/removal analyses and -trace runs (whose point is the
// side-effect trace file) always run live. The returned error is
// reported by main after cache teardown.
func runSingle(ctx context.Context, lockedPath, keyPath string, o options,
	sensitize, removal bool, tracePath, jsonOut string, ckpt *sweep.Checkpoint, c *cache.Cache) error {
	bench, key, err := readTarget(lockedPath, keyPath)
	if err != nil {
		return err
	}
	t, err := attack.LoadTarget(lockedPath, string(bench), keyPath, string(key), o.prefix)
	if err != nil {
		return err
	}

	fmt.Printf("satattack: %d key bits, %d functional inputs, %d outputs, timeout %v\n",
		len(t.KeyPos), len(t.Locked.Inputs)-len(t.KeyPos), len(t.Locked.Outputs), o.timeout)

	if sensitize {
		res, err := attack.Sensitize(t.Locked, t.KeyPos, t.Oracle, 16, o.timeout)
		if err != nil {
			return err
		}
		fmt.Println("satattack:", res)
		return nil
	}
	if removal {
		stripped, err := attack.StructuralRemoval(t.Locked, t.KeyPos, 1)
		if err != nil {
			return err
		}
		strippedOracle, err := attack.NewSimOracle(stripped)
		if err != nil {
			return err
		}
		e, err := attack.OracleErrorRate(strippedOracle, t.Oracle, 16, 2)
		if err != nil {
			return err
		}
		fmt.Printf("satattack: removal attack output error rate %.6f (0 = circuit recovered exactly)\n", e)
		return nil
	}

	var ck cache.Key
	if tracePath == "" {
		ck = targetCacheKey(c, bench, key, o)
	}
	var trace *os.File
	if tracePath != "" {
		trace, err = os.Create(tracePath)
		if err != nil {
			return err
		}
	}
	start := time.Now()
	var tr *targetResult
	cached := false
	seconds := 0.0
	if ck.Valid() {
		if raw, storedSecs, ok := c.GetTimed(ck); ok {
			var hit targetResult
			if err := json.Unmarshal(raw, &hit); err == nil {
				tr, cached, seconds = &hit, true, storedSecs
			}
		}
	}
	if tr == nil {
		tr, err = attackOne(ctx, lockedPath, t, o, trace, jobJournalPath(ckpt, lockedPath))
		if trace != nil {
			err = errors.Join(err, trace.Close())
		}
		if err != nil {
			return err
		}
		seconds = time.Since(start).Seconds()
		if ck.Valid() {
			if raw, err := json.Marshal(tr); err == nil {
				_ = c.PutTimed(ck, raw, seconds)
			}
		}
	}
	if cached {
		fmt.Printf("satattack: result served from cache (no oracle queries, no solver calls; originally %.2fs)\n", seconds)
	}
	fmt.Printf("satattack: %s after %d DIPs in %v (%+v)\n",
		tr.Status, tr.Iterations, time.Since(start).Round(time.Millisecond), tr.Solver)
	fmt.Printf("satattack: oracle queries: %d (%d replayed from journal)\n", tr.Queries, tr.Replayed)
	if tr.Key != "" {
		fmt.Printf("satattack: recovered key verified, error rate %.6f\n", tr.ErrorRate)
		fmt.Println("satattack: key =", tr.Key)
	} else {
		fmt.Println("satattack: TIMEOUT — the paper reports this outcome as infinity")
	}
	if jsonOut != "" {
		res := sweep.Result{Name: lockedPath, Value: tr, Seconds: seconds}
		return writeJSON(jsonOut, []sweep.Result{res})
	}
	return nil
}

func writeJSON(path string, results []sweep.Result) error {
	if path == "-" {
		return sweep.WriteJSON(os.Stdout, results)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "satattack: writing", path)
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

func fail(err error) {
	fmt.Fprintln(os.Stderr, "satattack:", err)
	os.Exit(1)
}
