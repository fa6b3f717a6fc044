package report

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/cache"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/sat"
)

// TestCacheDifferentialSweep is the issue's headline differential
// test: run the SAT-runtime report sweep over c17 (the genuine
// ISCAS-85 netlist) and c432 cold, then re-run it warm against a
// *reopened* cache directory. The warm run must emit byte-identical
// JSON while issuing zero oracle queries and zero solver calls — the
// whole report is answered from checksummed cache entries.
func TestCacheDifferentialSweep(t *testing.T) {
	f, err := os.Open("../../testdata/c17.bench")
	if err != nil {
		t.Fatal(err)
	}
	c17, err := netlist.ParseBench("c17", f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	prof, ok := circuit.ProfileByName("c432")
	if !ok {
		t.Fatal("missing c432 profile")
	}
	c432, err := prof.Synthesize(0.25)
	if err != nil {
		t.Fatal(err)
	}
	bench := []*netlist.Netlist{c17, c432}

	dir := t.TempDir()
	runOnce := func(c *cache.Cache) []byte {
		t.Helper()
		cfg := AttackConfig{Timeout: 500 * time.Millisecond, Scale: 0.25, Seed: 3, Jobs: 2, Cache: c}
		var out bytes.Buffer
		for _, nl := range bench {
			tbl, err := SATRuntimeTable(cfg, nl, []int{1, 2}, []core.Size{core.Size2x2, core.Size8x8})
			if err != nil {
				t.Fatal(err)
			}
			enc := json.NewEncoder(&out)
			enc.SetIndent("", "  ")
			if err := enc.Encode(tbl); err != nil {
				t.Fatal(err)
			}
		}
		return out.Bytes()
	}

	cold, err := cache.Open(dir, cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	coldOut := runOnce(cold)
	if s := cold.Stats(); s.Puts == 0 || s.Hits != 0 {
		t.Fatalf("cold run stats %+v: want only misses and stores", s)
	}

	// Reopen: the warm run must accept entries written by the
	// "previous process".
	warm, err := cache.Open(dir, cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q0, s0 := attack.OracleQueriesTotal(), sat.SolveCallsTotal()
	warmOut := runOnce(warm)
	dq, ds := attack.OracleQueriesTotal()-q0, sat.SolveCallsTotal()-s0
	if dq != 0 {
		t.Errorf("warm run issued %d oracle queries, want 0", dq)
	}
	if ds != 0 {
		t.Errorf("warm run issued %d solver calls, want 0", ds)
	}
	if !bytes.Equal(coldOut, warmOut) {
		t.Errorf("warm JSON differs from cold JSON:\ncold:\n%s\nwarm:\n%s", coldOut, warmOut)
	}
	st := warm.Stats()
	if st.Misses != 0 || st.Invalidations != 0 {
		t.Errorf("warm run stats %+v: want pure hits", st)
	}
	wantCells := int64(len(bench) * 2 * 2) // 2 counts x 2 sizes per circuit
	if st.Hits != wantCells {
		t.Errorf("warm run hit %d cells, want %d", st.Hits, wantCells)
	}
}

// TestCacheTamperRecompute: damaging one entry of a warmed report
// cache degrades exactly that cell to a recompute — the table keeps
// its shape (the cell's measured runtime is legitimately re-measured,
// so only pure-hit runs are byte-identical) and the damaged entry is
// rewritten, making the next run a pure hit again.
func TestCacheTamperRecompute(t *testing.T) {
	prof, ok := circuit.ProfileByName("c432")
	if !ok {
		t.Fatal("missing c432 profile")
	}
	orig, err := prof.Synthesize(0.25)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	c, err := cache.Open(dir, cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := AttackConfig{Timeout: 500 * time.Millisecond, Scale: 0.25, Seed: 3, Jobs: 1, Cache: c}
	counts, sizes := []int{1}, []core.Size{core.Size2x2}
	cold, err := SATRuntimeTable(cfg, orig, counts, sizes)
	if err != nil {
		t.Fatal(err)
	}

	// Flip one byte in the single entry file.
	var entry string
	err = walkFiles(dir+"/entries", func(path string) { entry = path })
	if err != nil || entry == "" {
		t.Fatalf("no entry file found (err=%v)", err)
	}
	raw, err := os.ReadFile(entry)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x80
	if err := os.WriteFile(entry, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	warm, err := SATRuntimeTable(cfg, orig, counts, sizes)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Title != cold.Title || len(warm.Rows) != len(cold.Rows) ||
		len(warm.Rows[0]) != len(cold.Rows[0]) || warm.Rows[0][1] == "n/a" {
		t.Fatalf("recomputed table lost its shape: %+v vs %+v", warm, cold)
	}
	st := c.Stats()
	if st.Invalidations != 1 {
		t.Fatalf("stats %+v: want exactly one invalidation", st)
	}
	// The recompute re-stored the entry: a third run is a pure hit.
	pre := c.Stats().Hits
	if _, err := SATRuntimeTable(cfg, orig, counts, sizes); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Hits != pre+1 {
		t.Fatalf("recomputed entry was not rewritten (hits %d -> %d)", pre, c.Stats().Hits)
	}
}

func walkFiles(root string, fn func(path string)) error {
	entries, err := os.ReadDir(root)
	if err != nil {
		return err
	}
	for _, e := range entries {
		p := root + "/" + e.Name()
		if e.IsDir() {
			if err := walkFiles(p, fn); err != nil {
				return err
			}
			continue
		}
		fn(p)
	}
	return nil
}

// TestCellKeyPins pins the full cache key of one Table I cell (one
// 2×2 block on c7552@0.1), one Table III AppSAT cell (b15@0.1) and the
// sensitization table's two cells, as the tables derive them: every
// key that moves orphans a cache filled before the change. The tables
// run once into an empty cache and the pinned keys must name entry
// files. The sensitization keys carry attack.SensitizeVersion; under
// version 0 they were 30961362…bc2d (XOR) and b9479f11…a8fd (RIL).
func TestCellKeyPins(t *testing.T) {
	dir := t.TempDir()
	c, err := cache.Open(dir, cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := AttackConfig{Timeout: time.Millisecond, Scale: 0.1, Seed: 1, Jobs: 2, Cache: c}
	if _, err := Table1(cfg, []int{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := Table3(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := Sensitization(cfg); err != nil {
		t.Fatal(err)
	}
	stored := map[string]bool{}
	if err := walkFiles(dir+"/entries", func(path string) { stored[filepath.Base(path)] = true }); err != nil {
		t.Fatal(err)
	}
	if len(stored) != 3+40+2 {
		t.Errorf("%d entries, want one per cell (45)", len(stored))
	}
	for cell, key := range map[string]string{
		"Table I c7552 1×2x2":    "7c35e84cadd78d88535a5c23fb7e10fabc9c4d276848ef847dc3a617c6f004ef",
		"Table III b15 AppSAT":   "087096105df782ce0e39cd35e933743c9ef4b36f0366fc43aef49564d9d3724f",
		"Sensitization XOR lock": "eaf7bb8785c0a9015d48aa8c2373885fb115c6940e011d71cc0605c8fab432df",
		"Sensitization RIL 8x8":  "65a2286cae2c291f19143a486aa9f1a9bfb78459714e6217539ca21c70742d2e",
	} {
		if !stored[key] {
			t.Errorf("%s: no entry under pinned key %s", cell, key)
		}
	}
}

// BenchmarkCellKey derives the cache key of one Table I cell, the key
// a warm Table I and Table III derive 70 times, on attack options
// rendered once, as a table call renders them.
func BenchmarkCellKey(b *testing.B) {
	c, err := cache.Open(b.TempDir(), cache.Options{})
	if err != nil {
		b.Fatal(err)
	}
	nl, err := buildC17()
	if err != nil {
		b.Fatal(err)
	}
	tc := AttackConfig{Timeout: time.Millisecond, Scale: 0.1, Seed: 1, Cache: c}.cells()
	sum := cache.NetlistSum(nl)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !tc.key("sat-runtime-cell", sum, map[string]any{"blocks": 2, "size": core.Size2x2.String()}).Valid() {
			b.Fatal("no key")
		}
	}
}
