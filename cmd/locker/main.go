// Command locker obfuscates a gate-level .bench netlist with
// RIL-Blocks or one of the baseline schemes, emitting the locked
// netlist plus the correct key.
//
// Usage:
//
//	locker -in c7552.bench -scheme ril -size 8x8x8 -blocks 3 \
//	       -out locked.bench -keyout key.txt
//	locker -in c7552.bench -scheme xor -keybits 32 -out locked.bench
//
// Schemes (baselines.SchemeNames): ril, lut, xor, sarlock, antisat,
// sfll, caslock, meso.
//
// -cache-dir memoizes the locked artifact (netlist + key + overhead
// note) in the checksummed result cache, keyed by the input netlist
// bytes and every locking option; only artifacts that passed the
// netlint emit gate are ever stored. -cache-max caps the size GC
// enforces on exit.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/baselines"
	"repro/internal/cache"
	"repro/internal/netlint"
	"repro/internal/netlist"
)

// lockedArtifact is the cacheable outcome of one locker invocation.
type lockedArtifact struct {
	Bench string   `json:"bench"`           // locked netlist, .bench text
	Key   []string `json:"key"`             // "name=bit" lines in key order
	Extra string   `json:"extra,omitempty"` // overhead note for stderr
}

func main() {
	var (
		in      = flag.String("in", "", "input .bench netlist")
		out     = flag.String("out", "", "locked .bench output (default stdout)")
		keyout  = flag.String("keyout", "", "key file output (name=bit per line; default stderr)")
		scheme  = flag.String("scheme", "ril", strings.Join(baselines.SchemeNames(), "|"))
		size    = flag.String("size", "8x8x8", "RIL-Block geometry (2x2, 8x8, 8x8x8, 4x4x4, ...)")
		blocks  = flag.Int("blocks", 1, "number of RIL-Blocks / LUTs / MESO gates")
		keybits = flag.Int("keybits", 16, "key width for xor/sarlock/antisat/sfll/caslock")
		hd      = flag.Int("hd", 0, "SFLL Hamming distance h")
		seed    = flag.Int64("seed", 1, "deterministic seed")
		scan    = flag.Bool("scan", false, "add scan-enable obfuscation (ril only)")
		nolint  = flag.Bool("nolint", false, "emit the locked netlist even when netlint finds Error-level defects")
	)
	var cacheFlags cache.Flags
	cacheFlags.Register(flag.CommandLine)
	flag.Parse()

	// SIGINT/SIGTERM aborts before the next stage boundary (lock, lint,
	// emit) rather than writing a partial artifact; cache GC still runs
	// and the exit is nonzero.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	if *in == "" {
		fmt.Fprintln(os.Stderr, "locker: -in is required")
		os.Exit(2)
	}
	raw, err := os.ReadFile(*in)
	if err != nil {
		fail(err)
	}
	orig, err := netlist.ParseBench(*in, bytes.NewReader(raw))
	if err != nil {
		fail(err)
	}

	c, err := cacheFlags.Open()
	if err != nil {
		fail(err)
	}
	params := baselines.Params{
		Size: *size, Blocks: *blocks, KeyBits: *keybits, HD: *hd, Seed: *seed, Scan: *scan,
	}
	var ck cache.Key
	if c != nil {
		if ck, err = artifactKey(raw, *scheme, params, *nolint); err != nil {
			fail(err)
		}
	}
	if ck.Valid() {
		if hit, ok := c.Get(ck); ok {
			var art lockedArtifact
			if err := json.Unmarshal(hit, &art); err == nil {
				// Stored artifacts passed the netlint emit gate when they
				// were computed, so the gate does not need to re-run.
				fmt.Fprintln(os.Stderr, "locker: artifact served from cache")
				if err := emit(&art, *out, *keyout); err != nil {
					fail(err)
				}
				closeCache(&cacheFlags, c)
				return
			}
		}
	}

	checkInterrupted(ctx, &cacheFlags, c)
	l, lintOpts, err := baselines.LockScheme(*scheme, orig, params)
	if err != nil {
		fail(err)
	}
	checkInterrupted(ctx, &cacheFlags, c)

	// Refuse to emit a structurally unsound or weakened lock: a cycle,
	// an undriven net, or dead key material is a defect of the lock, not
	// a property for the attacker to discover. The emit gate runs the
	// cheap hygiene set only; the cofactor-sweeping resilience audit is
	// a separate stage (cmd/netlint, the ci.sh audit gate).
	lint, err := netlint.Run(l.Netlist, lintOpts, netlint.Hygiene()...)
	if err != nil {
		fail(err)
	}
	for _, d := range lint.Errors() {
		fmt.Fprintf(os.Stderr, "locker: netlint: %s\n", d)
	}
	if lint.HasErrors() {
		if !*nolint {
			fail(fmt.Errorf("locked netlist failed %d Error-level netlint check(s); rerun with -nolint to emit anyway", lint.Count(netlint.Error)))
		}
		fmt.Fprintln(os.Stderr, "locker: -nolint set, emitting despite netlint errors")
	}
	if kr := lint.KeyReport; kr != nil {
		fmt.Fprintf(os.Stderr, "locker: effective key length %d of %d nominal bits\n", kr.Effective, kr.Nominal)
	}

	art, err := newArtifact(l)
	if err != nil {
		fail(err)
	}
	checkInterrupted(ctx, &cacheFlags, c)
	// Only lint-clean (or explicitly -nolint) artifacts reach this
	// point, so everything stored is safe to re-emit without re-linting.
	if ck.Valid() {
		if raw, err := json.Marshal(art); err == nil {
			_ = c.Put(ck, raw)
		}
	}
	if err := emit(art, *out, *keyout); err != nil {
		fail(err)
	}
	closeCache(&cacheFlags, c)
}

// artifactKey derives the cache key of one locker invocation: the
// input netlist's bytes and every locking option.
func artifactKey(raw []byte, scheme string, p baselines.Params, nolint bool) (cache.Key, error) {
	return cache.NewKey("locker-artifact").
		Bytes("input", raw).
		Options("opts", map[string]any{
			"scheme": scheme, "size": p.Size, "blocks": p.Blocks,
			"keybits": p.KeyBits, "hd": p.HD, "seed": p.Seed,
			"scan": p.Scan, "nolint": nolint,
		}).
		Key()
}

// newArtifact renders a lock as locker emits and caches it.
func newArtifact(l *baselines.Locked) (*lockedArtifact, error) {
	var bench bytes.Buffer
	if err := l.Netlist.WriteBench(&bench); err != nil {
		return nil, err
	}
	art := &lockedArtifact{Bench: bench.String(), Key: l.Netlist.KeyLines(l.KeyPos, l.Key)}
	if l.Note != "" {
		art.Extra = "locker: " + l.Note
	}
	return art, nil
}

// emit writes the locked netlist to out (default stdout) and the key
// lines to keyout (default stderr), then the overhead note.
func emit(art *lockedArtifact, out, keyout string) error {
	w := os.Stdout
	var of *os.File
	var err error
	if out != "" {
		of, err = os.Create(out)
		if err != nil {
			return err
		}
		w = of
	}
	if _, err := w.WriteString(art.Bench); err != nil {
		return err
	}
	if of != nil {
		if err := of.Close(); err != nil {
			return err
		}
	}

	kw := os.Stderr
	var kf *os.File
	if keyout != "" {
		kf, err = os.Create(keyout)
		if err != nil {
			return err
		}
		kw = kf
	}
	bw := bufio.NewWriter(kw)
	for _, line := range art.Key {
		fmt.Fprintln(bw, line)
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if kf != nil {
		if err := kf.Close(); err != nil {
			return err
		}
	}
	if art.Extra != "" {
		fmt.Fprintln(os.Stderr, art.Extra)
	}
	return nil
}

// closeCache runs exit-time cache GC and prints the counters.
func closeCache(f *cache.Flags, c *cache.Cache) {
	if err := f.Close(c, os.Stderr, "locker"); err != nil {
		fmt.Fprintln(os.Stderr, "locker: cache gc:", err)
	}
}

// checkInterrupted aborts at a stage boundary once a signal lands: no
// partial artifact is emitted, cache GC still runs, exit is nonzero.
func checkInterrupted(ctx context.Context, f *cache.Flags, c *cache.Cache) {
	if ctx.Err() == nil {
		return
	}
	closeCache(f, c)
	fmt.Fprintln(os.Stderr, "locker: interrupted; no artifact emitted")
	os.Exit(1)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "locker:", err)
	os.Exit(1)
}
