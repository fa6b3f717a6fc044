package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/baselines"
	"repro/internal/netlist"
)

// quickTarget writes ci's quick target, c17 locked with one 2x2
// RIL-Block at seed 17, as locker writes it, and returns the paths of
// the locked netlist and the key file.
func quickTarget(t *testing.T) (lockedPath, keyPath string) {
	t.Helper()
	raw, err := os.ReadFile("../../testdata/c17.bench")
	if err != nil {
		t.Fatal(err)
	}
	orig, err := netlist.ParseBench("testdata/c17.bench", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	l, _, err := baselines.LockScheme("ril", orig, baselines.Params{Size: "2x2", Blocks: 1, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	var bench bytes.Buffer
	if err := l.Netlist.WriteBench(&bench); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	lockedPath, keyPath = filepath.Join(dir, "quick.bench"), filepath.Join(dir, "quick.key")
	key := strings.Join(l.Netlist.KeyLines(l.KeyPos, l.Key), "\n") + "\n"
	if err := os.WriteFile(lockedPath, bench.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(keyPath, []byte(key), 0o644); err != nil {
		t.Fatal(err)
	}
	return lockedPath, keyPath
}

// TestQuickTargetJSON pins satattack's -json output for ci's quick
// target, apart from the paths and the seconds.
func TestQuickTargetJSON(t *testing.T) {
	lockedPath, keyPath := quickTarget(t)
	jsonPath := filepath.Join(filepath.Dir(lockedPath), "out.json")
	o := options{prefix: "keyinput", timeout: 2 * time.Minute, portfolio: 1}
	if err := runSingle(context.Background(), lockedPath, keyPath, o, false, false, "", jsonPath, nil, nil); err != nil {
		t.Fatal(err)
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
	o := options{prefix: "keyinput", timeout: 2 * time.Minute, portfolio: 1}
	err = runSingle(context.Background(), lockedPath, keyPath, o, false, false, "", "", nil, nil)
	if err == nil || !strings.Contains(err.Error(), `line 2: bit "I" is not 0 or 1`) {
		t.Fatalf("runSingle with a malformed key: error %v, want it to name line 2", err)
	}
}
