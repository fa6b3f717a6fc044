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
	"bufio"
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
	"repro/internal/netlist"
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

// openJournal prepares the DIP journal for one target. Fresh mode
// truncates any stale journal; resume mode loads it, tolerating a torn
// tail and degrading a corrupt file to a fresh start with a warning.
func openJournal(path string, resume bool) (*attack.Journal, *attack.JournalData, error) {
	if !resume {
		if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, nil, err
		}
	}
	j, data, err := attack.OpenJournal(path)
	if err == nil {
		return j, data, nil
	}
	if !errors.Is(err, attack.ErrJournalCorrupt) {
		return nil, nil, err
	}
	fmt.Fprintf(os.Stderr, "satattack: %s: corrupt journal, starting fresh: %v\n", path, err)
	if err := os.Remove(path); err != nil {
		return nil, nil, err
	}
	j, _, err = attack.OpenJournal(path)
	return j, nil, err
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
		runErr := runSingle(ctx, lockedList[0], keyList[0], *prefix, *timeout, *portfolio,
			*appsat, *bva, *sensitize, *removal, *tracePath, *jsonOut, ckpt, *resume, c)
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
		locked, key := lockedList[i], keyList[i]
		jobList = append(jobList, sweep.Job{
			Name:     locked,
			Seed:     sweep.DeriveSeed(1, i),
			Timeout:  *timeout + 30*time.Second, // headroom over the attack's own deadline
			CacheKey: targetCacheKey(c, locked, key, *prefix, *timeout, *portfolio, *appsat, *bva),
			Run: func(ctx context.Context, _ int64) (any, error) {
				return attackOne(ctx, locked, key, *prefix, *timeout, *portfolio, *appsat, *bva, nil,
					jobJournalPath(ckpt, locked), *resume)
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

// targetCacheKey derives the content-addressed cache key for one
// attack target: the raw bytes of the locked netlist and key files
// plus every option that shapes the attack and the attack's search
// version. Returns the zero Key —
// opting the target out of caching — when the cache is off or a file
// cannot be read (the attack itself will then surface the read error).
func targetCacheKey(c *cache.Cache, lockedPath, keyPath, prefix string,
	timeout time.Duration, portfolio int, appsat, bva bool) cache.Key {
	if c == nil {
		return cache.Key{}
	}
	lockedRaw, err := os.ReadFile(lockedPath)
	if err != nil {
		return cache.Key{}
	}
	keyRaw, err := os.ReadFile(keyPath)
	if err != nil {
		return cache.Key{}
	}
	k, err := cache.NewKey("satattack-target").
		Bytes("locked", lockedRaw).
		Bytes("key", keyRaw).
		Options("opts", map[string]any{
			"prefix":    prefix,
			"timeout":   timeout.Nanoseconds(),
			"portfolio": portfolio,
			"appsat":    appsat,
			"bva":       bva,
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

// attackOne loads one locked netlist + key, builds the simulated
// oracle and runs the selected attack, returning the JSON summary.
// With journalPath set the exact attack journals every DIP there;
// resume additionally replays an existing journal first.
func attackOne(ctx context.Context, lockedPath, keyPath, prefix string,
	timeout time.Duration, portfolio int, appsat, bva bool, trace *os.File,
	journalPath string, resume bool) (tr *targetResult, err error) {
	f, err := os.Open(lockedPath)
	if err != nil {
		return nil, err
	}
	locked, err := netlist.ParseBench(lockedPath, f)
	f.Close()
	if err != nil {
		return nil, err
	}
	keyPos := locked.GateIDsByPrefix(prefix)
	if len(keyPos) == 0 {
		return nil, fmt.Errorf("no key inputs with prefix %q", prefix)
	}
	key, err := readKey(keyPath, locked, keyPos)
	if err != nil {
		return nil, err
	}
	bound, err := locked.BindInputs(keyPos, key)
	if err != nil {
		return nil, err
	}
	oracle, err := attack.NewSimOracle(bound)
	if err != nil {
		return nil, err
	}

	tr = &targetResult{Target: lockedPath, KeyBits: len(keyPos)}
	var status attack.Status
	var recovered []bool
	if appsat {
		opt := attack.DefaultAppSAT()
		opt.Timeout = timeout
		opt.Context = ctx
		res, err := attack.AppSAT(locked, keyPos, oracle, opt)
		if err != nil {
			return nil, err
		}
		status, recovered, tr.Iterations = res.Status, res.Key, res.DIPs
	} else {
		opts := attack.SATOptions{Timeout: timeout, BVA: bva, Context: ctx, Portfolio: portfolio}
		if trace != nil {
			opts.Trace = trace
		}
		if journalPath != "" {
			j, data, err := openJournal(journalPath, resume)
			if err != nil {
				return nil, err
			}
			// The journal fsyncs per record; a failed close is the last
			// chance to observe lost appended DIPs, so join it into err.
			defer func() { err = errors.Join(err, j.Close()) }()
			opts.Journal = j
			opts.Resume = data
		}
		res, err := attack.SATAttack(locked, keyPos, oracle, opts)
		if errors.Is(err, attack.ErrReplayDiverged) {
			// The journal belongs to a different netlist or attack
			// configuration; degrade to a fresh run.
			fmt.Fprintf(os.Stderr, "satattack: %s: journal does not match, starting fresh: %v\n", journalPath, err)
			j, _, jerr := openJournal(journalPath, false)
			if jerr != nil {
				return nil, jerr
			}
			defer func() { err = errors.Join(err, j.Close()) }()
			opts.Journal, opts.Resume = j, nil
			res, err = attack.SATAttack(locked, keyPos, oracle, opts)
		}
		if err != nil {
			return nil, err
		}
		status, recovered, tr.Iterations, tr.Replayed, tr.Solver =
			res.Status, res.Key, res.Iterations, res.Replayed, res.Solver
	}
	tr.Status = status.String()
	tr.Queries = oracle.Queries()
	if status == attack.KeyFound {
		tr.Key = keyString(recovered)
		e, err := attack.VerifyKey(locked, keyPos, recovered, oracle, 16, 1)
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
func runSingle(ctx context.Context, lockedPath, keyPath, prefix string, timeout time.Duration, portfolio int,
	appsat, bva, sensitize, removal bool, tracePath, jsonOut string,
	ckpt *sweep.Checkpoint, resume bool, c *cache.Cache) error {
	f, err := os.Open(lockedPath)
	if err != nil {
		return err
	}
	locked, err := netlist.ParseBench(lockedPath, f)
	f.Close()
	if err != nil {
		return err
	}
	keyPos := locked.GateIDsByPrefix(prefix)
	if len(keyPos) == 0 {
		return fmt.Errorf("no key inputs with prefix %q", prefix)
	}
	key, err := readKey(keyPath, locked, keyPos)
	if err != nil {
		return err
	}
	bound, err := locked.BindInputs(keyPos, key)
	if err != nil {
		return err
	}
	oracle, err := attack.NewSimOracle(bound)
	if err != nil {
		return err
	}

	fmt.Printf("satattack: %d key bits, %d functional inputs, %d outputs, timeout %v\n",
		len(keyPos), len(locked.Inputs)-len(keyPos), len(locked.Outputs), timeout)

	if sensitize {
		res, err := attack.Sensitize(locked, keyPos, oracle, 16, timeout)
		if err != nil {
			return err
		}
		fmt.Println("satattack:", res)
		return nil
	}
	if removal {
		stripped, err := attack.StructuralRemoval(locked, keyPos, 1)
		if err != nil {
			return err
		}
		strippedOracle, err := attack.NewSimOracle(stripped)
		if err != nil {
			return err
		}
		e, err := attack.OracleErrorRate(strippedOracle, oracle, 16, 2)
		if err != nil {
			return err
		}
		fmt.Printf("satattack: removal attack output error rate %.6f (0 = circuit recovered exactly)\n", e)
		return nil
	}

	var ck cache.Key
	if tracePath == "" {
		ck = targetCacheKey(c, lockedPath, keyPath, prefix, timeout, portfolio, appsat, bva)
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
		tr, err = attackOne(ctx, lockedPath, keyPath, prefix, timeout, portfolio, appsat, bva, trace,
			jobJournalPath(ckpt, lockedPath), resume)
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

func keyString(key []bool) string {
	var sb strings.Builder
	for _, b := range key {
		if b {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

func readKey(path string, locked *netlist.Netlist, keyPos []int) ([]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	byName := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		eq := strings.Split(line, "=")
		if len(eq) != 2 {
			return nil, fmt.Errorf("bad key line %q", line)
		}
		byName[strings.TrimSpace(eq[0])] = strings.TrimSpace(eq[1]) == "1"
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	key := make([]bool, len(keyPos))
	for i, pos := range keyPos {
		name := locked.Gates[locked.Inputs[pos]].Name
		v, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("key file missing %q", name)
		}
		key[i] = v
	}
	return key, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "satattack:", err)
	os.Exit(1)
}
