package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"

	"repro/internal/durable"
	"repro/internal/testutil"
)

// readManifest reads the manifest log in dir through durable.ReadLog:
// it must be whole (no torn line), start with a version-2 header, and
// every later line is one entry, in file order.
func readManifest(t *testing.T, dir string) []*manifestEntry {
	t.Helper()
	f, err := os.Open(manifestPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var entries []*manifestEntry
	_, torn, err := durable.ReadLog(f, func(line int, rec []byte) error {
		if line == 1 {
			var h manifestHeader
			if err := json.Unmarshal(rec, &h); err != nil || h.Version != manifestVersion {
				return fmt.Errorf("header %s, want version %d", rec, manifestVersion)
			}
			return nil
		}
		e := &manifestEntry{}
		entries = append(entries, e)
		return json.Unmarshal(rec, e)
	})
	if err != nil || torn {
		t.Fatalf("manifest log: err=%v torn=%v", err, torn)
	}
	return entries
}

// manifestLog frames recs as manifest log lines.
func manifestLog(t *testing.T, recs ...any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := durable.Append(&buf, recs...); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

var v2Header = manifestHeader{Version: manifestVersion}

// result is a finished job's envelope holding the JSON result raw.
func result(raw string) *jobOutcome { return &jobOutcome{Result: json.RawMessage(raw)} }

// allCompleted reports whether m records every named job done.
func allCompleted(m *manifest, names []string) bool {
	for _, n := range names {
		if _, ok := m.completed(n); !ok {
			return false
		}
	}
	return true
}

// TestManifestDegradesOnCorruption: damage a torn append cannot
// explain degrades the open to an empty manifest, and the degraded
// manifest's first record starts a valid log.
func TestManifestDegradesOnCorruption(t *testing.T) {
	done := func(name string) *manifestEntry { return &manifestEntry{Name: name, Status: "done"} }
	good := manifestLog(t, v2Header, done("a"))
	corruptLine := append(append([]byte(nil), good...), manifestLog(t, done("b"))...)
	// Flip a byte inside the "a" entry: its CRC no longer matches, and
	// a valid line follows, so it is not a torn tail.
	i := bytes.Index(corruptLine, []byte(`"a"`))
	corruptLine[i+1] = 'x'
	for name, contents := range map[string][]byte{
		"corrupt-line":  corruptLine,
		"wrong-version": manifestLog(t, manifestHeader{Version: 99}, done("a")),
		"bad-status":    manifestLog(t, v2Header, &manifestEntry{Name: "a", Status: "maybe"}),
		"empty-name":    manifestLog(t, v2Header, done("")),
		"not-json":      []byte("I am not a manifest\n"),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(manifestPath(dir), contents, 0o644); err != nil {
				t.Fatal(err)
			}
			m, err := openManifest(dir)
			if err != nil {
				t.Fatalf("corrupt manifest errored instead of degrading: %v", err)
			}
			if !m.degraded {
				t.Error("corrupt manifest not reported degraded")
			}
			if _, ok := m.completed("a"); ok {
				t.Error("degraded manifest still reports completed jobs")
			}
			// The degraded manifest must behave like a fresh one: its
			// records start a new, valid log.
			names := []string{"job-00", "job-01"}
			for i, n := range names {
				if err := m.record(n, result(fmt.Sprint(i)), 0); err != nil {
					t.Fatal(err)
				}
			}
			if mf := readManifest(t, dir); len(mf) != 2 {
				t.Errorf("new log has %d entries, want 2", len(mf))
			}
			if re, err := openManifest(dir); err != nil || re.degraded || !allCompleted(re, names) {
				t.Errorf("manifest still bad after the degraded one recorded into it: err=%v degraded=%v", err, re.degraded)
			}
		})
	}
}

// TestManifestUpgradesV1: an indented version-1 manifest opens
// degraded, and the next record starts a valid version-2 log.
func TestManifestUpgradesV1(t *testing.T) {
	dir := t.TempDir()
	v1 := `{
  "version": 1,
  "jobs": [
    {
      "name": "a",
      "status": "done",
      "seconds": 0.5
    }
  ]
}
`
	if err := os.WriteFile(manifestPath(dir), []byte(v1), 0o600); err != nil {
		t.Fatal(err)
	}
	m, err := openManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !m.degraded {
		t.Error("version-1 manifest not reported degraded")
	}
	if _, ok := m.completed("a"); ok {
		t.Error("version-1 entry reported completed")
	}
	if err := m.record("b", result("1"), 0); err != nil {
		t.Fatal(err)
	}
	if mf := readManifest(t, dir); len(mf) != 1 || mf[0].Name != "b" || mf[0].Status != "done" {
		t.Fatalf("log after upgrade = %+v, want one done entry for b", mf)
	}
	re, err := openManifest(dir)
	if err != nil || re.degraded {
		t.Fatalf("upgraded log: err=%v degraded=%v", err, re.degraded)
	}
	if _, ok := re.completed("b"); !ok {
		t.Error("record after upgrade lost")
	}
}

// TestManifestTornTail: a torn last line, the mark of a crash
// mid-append, is cut off on open; the entries before it stay.
func TestManifestTornTail(t *testing.T) {
	dir := t.TempDir()
	whole := manifestLog(t, v2Header, &manifestEntry{Name: "a", Status: "done"}, &manifestEntry{Name: "b", Status: "failed"})
	last := manifestLog(t, &manifestEntry{Name: "c", Status: "done"})
	for cut := 1; cut < len(last); cut++ {
		torn := append(append([]byte(nil), whole...), last[:cut]...)
		if err := os.WriteFile(manifestPath(dir), torn, 0o600); err != nil {
			t.Fatal(err)
		}
		m, err := openManifest(dir)
		if err != nil || m.degraded {
			t.Fatalf("cut %d: err=%v, want a clean open", cut, err)
		}
		if _, ok := m.completed("a"); !ok {
			t.Fatalf("cut %d: earlier entry a lost", cut)
		}
		if _, ok := m.completed("c"); ok {
			t.Fatalf("cut %d: torn entry c reported completed", cut)
		}
		if got, err := os.ReadFile(manifestPath(dir)); err != nil || !bytes.Equal(got, whole) {
			t.Fatalf("cut %d: open left %q (%v), want the torn line cut off", cut, got, err)
		}
	}
}

// TestManifestSupersedes: a later line for an ID supersedes an earlier
// one, in either direction. The failed lines are hand-written as
// earlier daemons appended them for an interrupted job; they still
// read, as not finished, and a done record after one finishes the job.
func TestManifestSupersedes(t *testing.T) {
	failed := map[string]any{"name": "a", "status": "failed", "error": "sweep: job interrupted: context canceled", "seconds": 0.5}
	done := &manifestEntry{Name: "a", Status: "done", Value: json.RawMessage(`{"result":1}`), Seconds: 1}
	for _, tc := range []struct {
		name     string
		log      []any
		record   bool // then record a done through the manifest
		wantDone bool
	}{
		{"failed-then-done", []any{v2Header, failed}, true, true},
		{"done-then-failed", []any{v2Header, done, failed}, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(manifestPath(dir), manifestLog(t, tc.log...), 0o600); err != nil {
				t.Fatal(err)
			}
			m, err := openManifest(dir)
			if err != nil || m.degraded {
				t.Fatalf("err=%v degraded=%v", err, m.degraded)
			}
			if _, done := m.completed("a"); done {
				t.Fatal("a job whose last line is failed reads as finished")
			}
			if tc.record {
				if err := m.record("a", result("1"), 1); err != nil {
					t.Fatal(err)
				}
			}
			if mf := readManifest(t, dir); len(mf) != 2 {
				t.Fatalf("log has %d entries, want both lines", len(mf))
			}
			re, err := openManifest(dir)
			if err != nil || re.degraded {
				t.Fatalf("err=%v degraded=%v", err, re.degraded)
			}
			if _, done := re.completed("a"); done != tc.wantDone {
				t.Errorf("reopened done=%v, want %v", done, tc.wantDone)
			}
		})
	}
}

// TestManifestAppendOnly: each record appends one line and rewrites
// nothing, so across 50 records each manifest is a byte prefix of the
// next, one line longer (the first also writes the header).
func TestManifestAppendOnly(t *testing.T) {
	dir := t.TempDir()
	m, err := openManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	var prev []byte
	for i := 0; i < 50; i++ {
		if err := m.record(fmt.Sprintf("j%02d", i), result(fmt.Sprintf(`{"i":%d}`, i)), 0); err != nil {
			t.Fatal(err)
		}
		cur, err := os.ReadFile(manifestPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		want := bytes.Count(prev, []byte("\n")) + 1
		if i == 0 {
			want = 2
		}
		if !bytes.HasPrefix(cur, prev) || bytes.Count(cur, []byte("\n")) != want {
			t.Fatalf("record %d: manifest is not the previous one plus one line:\nprev %q\ncur  %q", i, prev, cur)
		}
		prev = cur
	}
	if mf := readManifest(t, dir); len(mf) != 50 {
		t.Fatalf("log has %d entries, want 50", len(mf))
	}
}

// TestManifestRecordCrash tears a record's append at every byte
// budget, for the first record (which also writes the header) and for
// a later one. record must fail; an open of what is on disk keeps
// every earlier entry and drops only the torn one; and the next record
// on the same manifest cuts the torn line, so the log reopens clean.
func TestManifestRecordCrash(t *testing.T) {
	orig := durable.NewSink
	t.Cleanup(func() { durable.NewSink = orig })
	for _, earlier := range []int{0, 3} {
		t.Run(fmt.Sprintf("after-%d", earlier), func(t *testing.T) {
			dir := t.TempDir()
			m, err := openManifest(dir)
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			for i := 0; i < earlier; i++ {
				names = append(names, fmt.Sprintf("e%d", i))
				if err := m.record(names[i], result(fmt.Sprint(i)), 0); err != nil {
					t.Fatal(err)
				}
			}
			before, err := os.ReadFile(manifestPath(dir))
			if err != nil && earlier > 0 {
				t.Fatal(err)
			}
			next := result(`{"payload":"abc"}`)
			for budget := 0; ; budget++ {
				durable.NewSink = func(f *os.File) durable.Sink { return testutil.NewFaultyWriter(f, budget) }
				err := m.record("next", next, 0)
				durable.NewSink = orig
				if err == nil {
					break
				}
				if !errors.Is(err, testutil.ErrInjected) {
					t.Fatalf("budget %d: record failed with %v, want the injected fault", budget, err)
				}
				if budget > 4096 {
					t.Fatal("record never completed")
				}
				// Open a copy, so the torn line stays for the next record
				// on m to cut.
				copyDir := t.TempDir()
				disk, err := os.ReadFile(manifestPath(dir))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.HasPrefix(disk, before) {
					t.Fatalf("budget %d: the torn append changed earlier bytes", budget)
				}
				if err := os.WriteFile(manifestPath(copyDir), disk, 0o600); err != nil {
					t.Fatal(err)
				}
				re, err := openManifest(copyDir)
				if err != nil {
					t.Fatalf("budget %d: %v", budget, err)
				}
				if earlier > 0 && re.degraded {
					t.Fatalf("budget %d: a torn append degraded the open", budget)
				}
				if !allCompleted(re, names) {
					t.Fatalf("budget %d: open lost an earlier entry", budget)
				}
				if _, ok := re.completed("next"); ok {
					t.Fatalf("budget %d: torn entry reported completed", budget)
				}
				if _, ok := m.completed("next"); ok {
					t.Fatalf("budget %d: failed record reported completed", budget)
				}
			}
			mf := readManifest(t, dir)
			if len(mf) != earlier+1 || mf[earlier].Name != "next" {
				t.Fatalf("log after the completed record = %+v, want %d earlier entries then next", mf, earlier)
			}
			re, err := openManifest(dir)
			if err != nil || re.degraded || !allCompleted(re, append(names, "next")) {
				t.Fatalf("log after the completed record: err=%v degraded=%v", err, re.degraded)
			}
		})
	}
}

func TestManifestMissingIsFresh(t *testing.T) {
	m, err := openManifest(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if m.degraded {
		t.Error("missing manifest reported degraded")
	}
}

func TestManifestConcurrentRecord(t *testing.T) {
	dir := t.TempDir()
	m, err := openManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := m.record(fmt.Sprintf("j%d", i), result(fmt.Sprint(i)), 0); err != nil {
				t.Errorf("record j%d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	re, err := openManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if re.degraded {
		t.Fatal("manifest corrupt after concurrent records")
	}
	for i := 0; i < n; i++ {
		if _, ok := re.completed(fmt.Sprintf("j%d", i)); !ok {
			t.Errorf("j%d missing from manifest", i)
		}
	}
}
