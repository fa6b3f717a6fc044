package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/baselines"
	"repro/internal/cache"
	"repro/internal/netlist"
	"repro/internal/sat"
)

// quickTarget writes ci's quick target, c17 locked with one 2x2
// RIL-Block at seed 17, as locker writes it, and returns the paths of
// the locked netlist and the key file.
func quickTarget(t *testing.T) (lockedPath, keyPath string) {
	t.Helper()
	dir := t.TempDir()
	lockedPath, keyPath = filepath.Join(dir, "quick.bench"), filepath.Join(dir, "quick.key")
	lockC17(t, "ril", baselines.Params{Size: "2x2", Blocks: 1, Seed: 17}, lockedPath, keyPath)
	return lockedPath, keyPath
}

// lockC17 locks c17 with the scheme, writes the locked netlist and its
// key file to the two paths as locker does, and returns the key as a
// bit string.
func lockC17(t *testing.T, scheme string, p baselines.Params, lockedPath, keyPath string) string {
	t.Helper()
	raw, err := os.ReadFile("../../testdata/c17.bench")
	if err != nil {
		t.Fatal(err)
	}
	orig, err := netlist.ParseBench("testdata/c17.bench", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	l, _, err := baselines.LockScheme(scheme, orig, p)
	if err != nil {
		t.Fatal(err)
	}
	var bench bytes.Buffer
	if err := l.Netlist.WriteBench(&bench); err != nil {
		t.Fatal(err)
	}
	key := strings.Join(l.Netlist.KeyLines(l.KeyPos, l.Key), "\n") + "\n"
	if err := os.WriteFile(lockedPath, bench.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(keyPath, []byte(key), 0o644); err != nil {
		t.Fatal(err)
	}
	return attack.BitString(l.Key)
}

// TestQuickTargetJSON pins satattack's -json output for ci's quick
// target, apart from the paths and the seconds.
func TestQuickTargetJSON(t *testing.T) {
	lockedPath, keyPath := quickTarget(t)
	jsonPath := filepath.Join(filepath.Dir(lockedPath), "out.json")
	if code, _, stderr := satattack(t, "-locked", lockedPath, "-key", keyPath, "-timeout", "2m", "-json", jsonPath); code != 0 {
		t.Fatalf("exit %d:\n%s", code, stderr)
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.ReplaceAll(string(raw), lockedPath, "quick.bench")
	got = regexp.MustCompile(`"seconds": [0-9.e-]+`).ReplaceAllString(got, `"seconds": 0`)
	const want = `[
  {
    "name": "quick.bench",
    "index": 0,
    "worker": 0,
    "value": {
      "target": "quick.bench",
      "key_bits": 9,
      "status": "key-found",
      "key": "001110111",
      "iterations": 6,
      "queries": 6,
      "error_rate": 0,
      "solver": {
        "decisions": 100,
        "propagations": 675,
        "conflicts": 16,
        "restarts": 0,
        "learnt": 16,
        "removed": 0,
        "max_depth": 23
      }
    },
    "seconds": 0
  }
]
`
	if got != want {
		t.Errorf("-json output:\n%s\nwant:\n%s", got, want)
	}
}

// TestMalformedKeyNamesLine: a key bit other than 0 or 1 stops the
// attack before the oracle is built, with an error naming the line.
func TestMalformedKeyNamesLine(t *testing.T) {
	lockedPath, keyPath := quickTarget(t)
	raw, err := os.ReadFile(keyPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(raw), "\n")
	lines[1] = lines[1][:len(lines[1])-1] + "I"
	if err := os.WriteFile(keyPath, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := satattack(t, "-locked", lockedPath, "-key", keyPath, "-timeout", "2m")
	if code == 0 || !strings.Contains(stderr, `line 2: bit "I" is not 0 or 1`) {
		t.Fatalf("satattack with a malformed key: exit %d, stderr %q, want it to name line 2", code, stderr)
	}
}

// TestJobTimeout pins a target's job deadline: none for an attack
// without a budget, whose deadline would otherwise cut it off at 30 s,
// and 30 s of headroom over a budget.
func TestJobTimeout(t *testing.T) {
	for _, tc := range []struct{ budget, want time.Duration }{
		{0, 0},
		{10 * time.Second, 40 * time.Second},
	} {
		if got := jobTimeout(tc.budget); got != tc.want {
			t.Errorf("jobTimeout(%v) = %v, want %v", tc.budget, got, tc.want)
		}
	}
}

// TestJSONDashWritesOnlyJSON: with "-json -" stdout holds one JSON
// array and nothing else, for one target and for a sweep; the report
// goes to stderr.
func TestJSONDashWritesOnlyJSON(t *testing.T) {
	lockedPath, keyPath := quickTarget(t)
	raw, err := os.ReadFile(lockedPath)
	if err != nil {
		t.Fatal(err)
	}
	second := filepath.Join(filepath.Dir(lockedPath), "second.bench")
	if err := os.WriteFile(second, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, locked := range []string{lockedPath, lockedPath + "," + second} {
		code, stdout, stderr := satattack(t, "-locked", locked, "-key", keyPath, "-json", "-")
		if code != 0 {
			t.Fatalf("-locked %s: exit %d:\n%s", locked, code, stderr)
		}
		var results []jsonResult
		if err := json.Unmarshal([]byte(stdout), &results); err != nil {
			t.Fatalf("-locked %s -json -: stdout is not one JSON array: %v\n%s", locked, err, stdout)
		}
		if want := len(strings.Split(locked, ",")); len(results) != want {
			t.Fatalf("-locked %s: %d results, want %d", locked, len(results), want)
		}
		if !strings.Contains(stderr, "key-found after 6 DIPs") {
			t.Fatalf("-locked %s: the report is not on stderr:\n%s", locked, stderr)
		}
	}
}

// TestResumeFinishedSingleTarget: a checkpointed single target ends
// its journal with a done record. Resumed without a cache, the record
// answers with no solver call and no attack query, and the key check
// runs again; resumed with the cache the first run filled, the target
// is a cache hit that queries the oracle not at all.
func TestResumeFinishedSingleTarget(t *testing.T) {
	lockedPath, keyPath := quickTarget(t)
	dir := filepath.Dir(lockedPath)
	cacheDir := filepath.Join(dir, "cache")
	first, resumed, cached := filepath.Join(dir, "first.json"), filepath.Join(dir, "resumed.json"), filepath.Join(dir, "cached.json")
	args := []string{"-locked", lockedPath, "-key", keyPath, "-checkpoint-dir", filepath.Join(dir, "ckpt")}
	if code, _, stderr := satattack(t, append(args, "-cache-dir", cacheDir, "-json", first)...); code != 0 {
		t.Fatalf("checkpointed run: exit %d:\n%s", code, stderr)
	}
	was := readResults(t, first)[0].Value

	solves := sat.SolveCallsTotal()
	code, stdout, stderr := satattack(t, append(args, "-resume", "-json", resumed)...)
	if code != 0 {
		t.Fatalf("resumed run: exit %d:\n%s", code, stderr)
	}
	if s := sat.SolveCallsTotal() - solves; s != 0 {
		t.Fatalf("resuming a finished target made %d solver calls, want 0", s)
	}
	now := readResults(t, resumed)[0].Value
	if now.Queries != 0 || now.Replayed != was.Iterations || now.Key != was.Key || now.Status != "key-found" {
		t.Fatalf("resumed result %+v, want the first run's key %s with all %d DIPs replayed and 0 queries", now, was.Key, was.Iterations)
	}
	if want := fmt.Sprintf("satattack: oracle queries: 0 (%d replayed from journal)", was.Iterations); !strings.Contains(stdout, want) {
		t.Fatalf("resumed report does not say %q:\n%s", want, stdout)
	}
	if !strings.Contains(stdout, "satattack: recovered key verified, error rate 0.000000") {
		t.Fatalf("resumed report does not check the key again:\n%s", stdout)
	}

	queries, solves := attack.OracleQueriesTotal(), sat.SolveCallsTotal()
	code, _, stderr = satattack(t, append(args, "-resume", "-cache-dir", cacheDir, "-json", cached)...)
	if code != 0 {
		t.Fatalf("resumed run with the cache: exit %d:\n%s", code, stderr)
	}
	if q, s := attack.OracleQueriesTotal()-queries, sat.SolveCallsTotal()-solves; q != 0 || s != 0 {
		t.Fatalf("resuming a cached target made %d oracle queries and %d solver calls, want 0 and 0", q, s)
	}
	if hit := readResults(t, cached)[0]; !hit.Cached || hit.Value != was {
		t.Fatalf("resumed result with the cache %+v, want a cached copy of %+v", hit, was)
	}
}

// TestResumeRelockedTarget: a target re-locked at the same paths is
// another circuit, so -resume attacks it afresh and prints its own
// key, not the one the old circuit's journal holds.
func TestResumeRelockedTarget(t *testing.T) {
	dir := t.TempDir()
	lockedPath, keyPath := filepath.Join(dir, "c17.bench"), filepath.Join(dir, "c17.key")
	lock := func(seed int64) string {
		return lockC17(t, "xor", baselines.Params{KeyBits: 4, Seed: seed}, lockedPath, keyPath)
	}
	args := []string{"-locked", lockedPath, "-key", keyPath, "-checkpoint-dir", filepath.Join(dir, "ckpt")}
	oldKey := lock(1)
	if code, stdout, stderr := satattack(t, args...); code != 0 || !strings.Contains(stdout, "key = "+oldKey) {
		t.Fatalf("first run: exit %d, want key %s:\n%s%s", code, oldKey, stdout, stderr)
	}
	newKey := lock(2)
	if newKey == oldKey {
		t.Fatalf("seeds 1 and 2 lock c17 with the same key %s", newKey)
	}
	code, stdout, stderr := satattack(t, append(args, "-resume")...)
	if code != 0 || !strings.Contains(stdout, "key = "+newKey) {
		t.Fatalf("resumed run on the re-locked target: exit %d, want key %s:\n%s%s", code, newKey, stdout, stderr)
	}
	if !strings.Contains(stderr, "journal does not match, starting fresh") {
		t.Fatalf("resumed run does not say it replaced the old circuit's journal:\n%s", stderr)
	}
}

// TestWarmSingleTargetCached: a second run of one target against the
// cache the first filled is served from it, prints the same header,
// and its -json element is marked cached with the cold value.
func TestWarmSingleTargetCached(t *testing.T) {
	lockedPath, keyPath := quickTarget(t)
	dir := filepath.Dir(lockedPath)
	args := []string{"-locked", lockedPath, "-key", keyPath, "-cache-dir", filepath.Join(dir, "cache")}
	cold, warm := filepath.Join(dir, "cold.json"), filepath.Join(dir, "warm.json")
	code, coldOut, stderr := satattack(t, append(args, "-json", cold)...)
	if code != 0 {
		t.Fatalf("cold run: exit %d:\n%s", code, stderr)
	}
	code, warmOut, stderr := satattack(t, append(args, "-json", warm)...)
	if code != 0 {
		t.Fatalf("warm run: exit %d:\n%s", code, stderr)
	}
	header := strings.SplitAfter(coldOut, "\n")[0]
	if !strings.HasPrefix(warmOut, header+"satattack: result served from cache") {
		t.Fatalf("warm report:\n%s\nwant the header %q, then the cache line", warmOut, header)
	}
	was, now := readResults(t, cold), readResults(t, warm)
	if !now[0].Cached || now[0].Worker != -1 || now[0].Value != was[0].Value {
		t.Fatalf("warm result %+v, want a cached copy of %+v", now[0], was[0])
	}
}

// jsonResult is one element of satattack's -json array.
type jsonResult struct {
	Name   string       `json:"name"`
	Worker int          `json:"worker"`
	Value  targetResult `json:"value"`
	Cached bool         `json:"cached"`
}

// readResults decodes a one-target -json file.
func readResults(t *testing.T, path string) []jsonResult {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var results []jsonResult
	if err := json.Unmarshal(raw, &results); err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("%s holds %d results, want 1", path, len(results))
	}
	return results
}

// satattack runs the command on args and returns its exit code, stdout
// and stderr.
func satattack(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestTargetCacheKeyPin pins the cache key of one attack target, so a
// change to key derivation that would orphan every cached target shows
// here.
func TestTargetCacheKeyPin(t *testing.T) {
	c, err := cache.Open(t.TempDir(), cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tg := &target{
		bench:   []byte("INPUT(a)\nINPUT(keyinput0)\nOUTPUT(y)\ny = XOR(a, keyinput0)\n"),
		keyText: []byte("keyinput0=1\n"),
	}
	o := options{prefix: "keyinput", timeout: 2 * time.Minute, portfolio: 4, appsat: true}
	const want = "197026200db2960abddbd47c8f39fa05ae7deafc5a405350ab120d05514eedea"
	if got := targetCacheKey(c, tg, o).String(); got != want {
		t.Errorf("target key %s, want %s", got, want)
	}
}
