package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/durable"
	"repro/internal/testutil"
)

func checkpointJobs(n int, ran *int32, failing map[int]bool) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		i, seed := i, DeriveSeed(7, i)
		jobs[i] = Job{
			Name: fmt.Sprintf("job-%02d", i),
			Run: func(ctx context.Context) (any, error) {
				atomic.AddInt32(ran, 1)
				if failing[i] {
					return nil, errors.New("deliberate failure")
				}
				return map[string]int64{"seed": seed}, nil
			},
		}
	}
	return jobs
}

func jobNames(jobs []Job) []string {
	names := make([]string, len(jobs))
	for i, j := range jobs {
		names[i] = j.Name
	}
	return names
}

func TestCheckpointManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ckpt, err := NewCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	var ran int32
	jobs := checkpointJobs(4, &ran, map[int]bool{2: true})
	r := &Runner{Workers: 2, Checkpoint: ckpt}
	results := r.Run(context.Background(), jobs)
	if ran != 4 {
		t.Fatalf("ran %d jobs, want 4", ran)
	}
	if ckpt.Complete(jobNames(jobs)) {
		t.Error("Complete true despite a failed job")
	}

	// The manifest log must record all four outcomes. Entries land in
	// completion order (workers race), so look them up by name.
	mf := readManifest(t, dir)
	if len(mf) != 4 {
		t.Fatalf("manifest has %d entries, want 4", len(mf))
	}
	byName := map[string]*ManifestEntry{}
	for _, e := range mf {
		byName[e.Name] = e
	}
	for i := range jobs {
		want := "done"
		if i == 2 {
			want = "failed"
		}
		e := byName[jobs[i].Name]
		if e == nil || e.Status != want {
			t.Errorf("manifest entry for %s = %+v, want status %q", jobs[i].Name, e, want)
		}
	}

	// Resume: done jobs skipped with recorded payloads, failed job
	// re-runs.
	resumed, err := ResumeCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Degraded() {
		t.Error("clean manifest reported degraded")
	}
	ran = 0
	jobs2 := checkpointJobs(4, &ran, nil) // job 2 succeeds this time
	r2 := &Runner{Workers: 2, Checkpoint: resumed}
	results2 := r2.Run(context.Background(), jobs2)
	if ran != 1 {
		t.Fatalf("resume ran %d jobs, want 1 (only the failed one)", ran)
	}
	for i, res := range results2 {
		if i == 2 {
			if res.Resumed || res.Err != nil {
				t.Errorf("job 2 should have re-run cleanly: %+v", res)
			}
			continue
		}
		if !res.Resumed {
			t.Errorf("job %d not marked resumed", i)
		}
		// The recorded payload must round-trip the original value.
		rawVal, ok := res.Value.(json.RawMessage)
		if !ok {
			t.Fatalf("job %d resumed value is %T, want json.RawMessage", i, res.Value)
		}
		var got map[string]int64
		if err := json.Unmarshal(rawVal, &got); err != nil {
			t.Fatalf("job %d resumed value unparseable: %v", i, err)
		}
		want := results[i].Value.(map[string]int64)
		if got["seed"] != want["seed"] {
			t.Errorf("job %d resumed seed %d, want %d", i, got["seed"], want["seed"])
		}
	}
	if !resumed.Complete(jobNames(jobs2)) {
		t.Error("Complete false after all jobs done")
	}
}

// readManifest reads the manifest log in dir through durable.ReadLog:
// it must be whole (no torn line), start with a version-2 header, and
// every later line is one entry, in file order.
func readManifest(t *testing.T, dir string) []*ManifestEntry {
	t.Helper()
	f, err := os.Open(ManifestPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var entries []*ManifestEntry
	_, torn, err := durable.ReadLog(f, func(line int, rec []byte) error {
		if line == 1 {
			var h manifestHeader
			if err := json.Unmarshal(rec, &h); err != nil || h.Version != ManifestVersion {
				return fmt.Errorf("header %s, want version %d", rec, ManifestVersion)
			}
			return nil
		}
		e := &ManifestEntry{}
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

var v2Header = manifestHeader{Version: ManifestVersion}

// TestResumeCheckpointDegradesOnCorruptManifest: damage a torn append
// cannot explain degrades the resume to a fresh sweep, and the
// degraded checkpoint's first record starts a valid log.
func TestResumeCheckpointDegradesOnCorruptManifest(t *testing.T) {
	done := func(name string) *ManifestEntry { return &ManifestEntry{Name: name, Status: "done"} }
	good := manifestLog(t, v2Header, done("a"))
	corruptLine := append(append([]byte(nil), good...), manifestLog(t, done("b"))...)
	// Flip a byte inside the "a" entry: its CRC no longer matches, and
	// a valid line follows, so it is not a torn tail.
	i := bytes.Index(corruptLine, []byte(`"a"`))
	corruptLine[i+1] = 'x'
	for name, contents := range map[string][]byte{
		"corrupt-line":  corruptLine,
		"wrong-version": manifestLog(t, manifestHeader{Version: 99}, done("a")),
		"bad-status":    manifestLog(t, v2Header, &ManifestEntry{Name: "a", Status: "maybe"}),
		"empty-name":    manifestLog(t, v2Header, done("")),
		"not-json":      []byte("I am not a manifest\n"),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(ManifestPath(dir), contents, 0o644); err != nil {
				t.Fatal(err)
			}
			ckpt, err := ResumeCheckpoint(dir)
			if err != nil {
				t.Fatalf("corrupt manifest errored instead of degrading: %v", err)
			}
			if !ckpt.Degraded() {
				t.Error("corrupt manifest not reported degraded")
			}
			if _, ok := ckpt.Completed("a"); ok {
				t.Error("degraded checkpoint still reports completed jobs")
			}
			// The degraded checkpoint must behave like a fresh one: every
			// job runs, and the manifest starts a new, valid log.
			var ran int32
			jobs := checkpointJobs(2, &ran, nil)
			(&Runner{Workers: 1, Checkpoint: ckpt}).Run(context.Background(), jobs)
			if ran != 2 {
				t.Errorf("degraded resume ran %d jobs, want 2", ran)
			}
			if mf := readManifest(t, dir); len(mf) != 2 {
				t.Errorf("new log has %d entries, want 2", len(mf))
			}
			if re, err := ResumeCheckpoint(dir); err != nil || re.Degraded() || !re.Complete(jobNames(jobs)) {
				t.Errorf("manifest still bad after degraded sweep recorded into it: err=%v degraded=%v", err, re.Degraded())
			}
		})
	}
}

// TestResumeCheckpointUpgradesV1: an indented version-1 manifest
// resumes degraded, and the next record starts a valid version-2 log.
func TestResumeCheckpointUpgradesV1(t *testing.T) {
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
	if err := os.WriteFile(ManifestPath(dir), []byte(v1), 0o600); err != nil {
		t.Fatal(err)
	}
	ckpt, err := ResumeCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !ckpt.Degraded() {
		t.Error("version-1 manifest not reported degraded")
	}
	if _, ok := ckpt.Completed("a"); ok {
		t.Error("version-1 entry reported completed")
	}
	if err := ckpt.Record(Result{Name: "b", Value: 1}); err != nil {
		t.Fatal(err)
	}
	if mf := readManifest(t, dir); len(mf) != 1 || mf[0].Name != "b" || mf[0].Status != "done" {
		t.Fatalf("log after upgrade = %+v, want one done entry for b", mf)
	}
	re, err := ResumeCheckpoint(dir)
	if err != nil || re.Degraded() {
		t.Fatalf("upgraded log: err=%v degraded=%v", err, re.Degraded())
	}
	if _, ok := re.Completed("b"); !ok {
		t.Error("record after upgrade lost")
	}
}

// TestResumeCheckpointTornTail: a torn last line, the mark of a crash
// mid-append, is cut off on resume; the entries before it stay.
func TestResumeCheckpointTornTail(t *testing.T) {
	dir := t.TempDir()
	whole := manifestLog(t, v2Header, &ManifestEntry{Name: "a", Status: "done"}, &ManifestEntry{Name: "b", Status: "failed"})
	last := manifestLog(t, &ManifestEntry{Name: "c", Status: "done"})
	for cut := 1; cut < len(last); cut++ {
		torn := append(append([]byte(nil), whole...), last[:cut]...)
		if err := os.WriteFile(ManifestPath(dir), torn, 0o600); err != nil {
			t.Fatal(err)
		}
		ckpt, err := ResumeCheckpoint(dir)
		if err != nil || ckpt.Degraded() {
			t.Fatalf("cut %d: err=%v degraded=%v, want a clean resume", cut, err, ckpt.Degraded())
		}
		if _, ok := ckpt.Completed("a"); !ok {
			t.Fatalf("cut %d: earlier entry a lost", cut)
		}
		if _, ok := ckpt.Completed("c"); ok {
			t.Fatalf("cut %d: torn entry c reported completed", cut)
		}
		if got, err := os.ReadFile(ManifestPath(dir)); err != nil || !bytes.Equal(got, whole) {
			t.Fatalf("cut %d: resume left %q (%v), want the torn line cut off", cut, got, err)
		}
	}
}

// TestResumeCheckpointSupersedes: a later record of a name supersedes
// an earlier one, in either direction.
func TestResumeCheckpointSupersedes(t *testing.T) {
	for _, tc := range []struct {
		name     string
		first    error
		second   error
		wantDone bool
	}{
		{"failed-then-done", errors.New("killed"), nil, true},
		{"done-then-failed", nil, errors.New("killed"), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ckpt, err := NewCheckpoint(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range []error{tc.first, tc.second} {
				if err := ckpt.Record(Result{Name: "a", Err: e, Value: 1}); err != nil {
					t.Fatal(err)
				}
			}
			if mf := readManifest(t, dir); len(mf) != 2 {
				t.Fatalf("log has %d entries, want both records", len(mf))
			}
			re, err := ResumeCheckpoint(dir)
			if err != nil || re.Degraded() {
				t.Fatalf("err=%v degraded=%v", err, re.Degraded())
			}
			if _, done := re.Completed("a"); done != tc.wantDone {
				t.Errorf("resumed done=%v, want %v", done, tc.wantDone)
			}
		})
	}
}

// TestCheckpointAppendOnly: each Record appends one line and rewrites
// nothing, so across 50 records each manifest is a byte prefix of the
// next, one line longer (the first also writes the header).
func TestCheckpointAppendOnly(t *testing.T) {
	dir := t.TempDir()
	ckpt, err := NewCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	var prev []byte
	for i := 0; i < 50; i++ {
		if err := ckpt.Record(Result{Name: fmt.Sprintf("j%02d", i), Value: map[string]int{"i": i}}); err != nil {
			t.Fatal(err)
		}
		cur, err := os.ReadFile(ManifestPath(dir))
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

// TestCheckpointRecordCrash tears a Record's append at every byte
// budget, for the first record (which also writes the header) and for
// a later one. Record must fail; a resume of what is on disk keeps
// every earlier entry and drops only the torn one; and the next
// Record on the same checkpoint cuts the torn line, so the log
// resumes clean.
func TestCheckpointRecordCrash(t *testing.T) {
	orig := durable.NewSink
	t.Cleanup(func() { durable.NewSink = orig })
	for _, earlier := range []int{0, 3} {
		t.Run(fmt.Sprintf("after-%d", earlier), func(t *testing.T) {
			dir := t.TempDir()
			ckpt, err := NewCheckpoint(dir)
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			for i := 0; i < earlier; i++ {
				names = append(names, fmt.Sprintf("e%d", i))
				if err := ckpt.Record(Result{Name: names[i], Value: i}); err != nil {
					t.Fatal(err)
				}
			}
			before, err := os.ReadFile(ManifestPath(dir))
			if err != nil && earlier > 0 {
				t.Fatal(err)
			}
			next := Result{Name: "next", Value: map[string]string{"payload": "abc"}}
			for budget := 0; ; budget++ {
				durable.NewSink = func(f *os.File) durable.Sink { return testutil.NewFaultyWriter(f, budget) }
				err := ckpt.Record(next)
				durable.NewSink = orig
				if err == nil {
					break
				}
				if !errors.Is(err, testutil.ErrInjected) {
					t.Fatalf("budget %d: Record failed with %v, want the injected fault", budget, err)
				}
				if budget > 4096 {
					t.Fatal("Record never completed")
				}
				// Resume a copy, so the torn line stays for the next
				// Record on ckpt to cut.
				copyDir := t.TempDir()
				disk, err := os.ReadFile(ManifestPath(dir))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.HasPrefix(disk, before) {
					t.Fatalf("budget %d: the torn append changed earlier bytes", budget)
				}
				if err := os.WriteFile(ManifestPath(copyDir), disk, 0o600); err != nil {
					t.Fatal(err)
				}
				re, err := ResumeCheckpoint(copyDir)
				if err != nil {
					t.Fatalf("budget %d: %v", budget, err)
				}
				if earlier > 0 && re.Degraded() {
					t.Fatalf("budget %d: a torn append degraded the resume", budget)
				}
				if !re.Complete(names) {
					t.Fatalf("budget %d: resume lost an earlier entry", budget)
				}
				if _, ok := re.Completed("next"); ok {
					t.Fatalf("budget %d: torn entry reported completed", budget)
				}
				if _, ok := ckpt.Completed("next"); ok {
					t.Fatalf("budget %d: failed Record reported completed", budget)
				}
			}
			mf := readManifest(t, dir)
			if len(mf) != earlier+1 || mf[earlier].Name != "next" {
				t.Fatalf("log after the completed Record = %+v, want %d earlier entries then next", mf, earlier)
			}
			re, err := ResumeCheckpoint(dir)
			if err != nil || re.Degraded() || !re.Complete(append(names, "next")) {
				t.Fatalf("log after the completed Record: err=%v degraded=%v", err, re.Degraded())
			}
		})
	}
}

func TestResumeCheckpointMissingManifestIsFresh(t *testing.T) {
	ckpt, err := ResumeCheckpoint(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if ckpt.Degraded() {
		t.Error("missing manifest reported degraded")
	}
}

func TestNewCheckpointWipesOldManifest(t *testing.T) {
	dir := t.TempDir()
	ckpt, err := NewCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := ckpt.Record(Result{Name: "old", Value: 1}); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fresh.Completed("old"); ok {
		t.Error("NewCheckpoint kept stale manifest entries")
	}
	if _, err := os.Stat(ManifestPath(dir)); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("manifest file survived NewCheckpoint: %v", err)
	}
}

func TestJobFileSanitizationAndCollisions(t *testing.T) {
	ckpt, err := NewCheckpoint(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	names := []string{
		"c17/ril=1 size=2x2",
		"c17_ril_1_size_2x2", // sanitizes to same stem as above
		"../../../etc/passwd",
		"plain",
		"Имя-с-юникодом",
		"", // empty names still get a distinct file
		"x" + string(make([]byte, 300)),
	}
	seen := map[string]string{}
	for _, n := range names {
		p := ckpt.JobFile(n)
		if filepath.Dir(p) != ckpt.Dir() {
			t.Errorf("JobFile(%q) escapes the checkpoint dir: %s", n, p)
		}
		if prev, dup := seen[p]; dup {
			t.Errorf("JobFile collision: %q and %q both map to %s", prev, n, p)
		}
		seen[p] = n
		if len(filepath.Base(p)) > 64+len("-00000000.journal") {
			t.Errorf("JobFile(%q) base name too long: %s", n, filepath.Base(p))
		}
		// The path must actually be usable.
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Errorf("JobFile(%q) unwritable: %v", n, err)
		}
	}
}

func TestCheckpointConcurrentRecord(t *testing.T) {
	dir := t.TempDir()
	ckpt, err := NewCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := ckpt.Record(Result{Name: fmt.Sprintf("j%d", i), Value: i}); err != nil {
				t.Errorf("record j%d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	re, err := ResumeCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if re.Degraded() {
		t.Fatal("manifest corrupt after concurrent records")
	}
	for i := 0; i < n; i++ {
		if _, ok := re.Completed(fmt.Sprintf("j%d", i)); !ok {
			t.Errorf("j%d missing from manifest", i)
		}
	}
}

// TestCheckpointResumeAfterCancel models the kill-and-resume flow at
// the sweep layer: cancel a sweep partway, then resume; previously
// finished jobs are skipped and the manifest ends complete.
func TestCheckpointResumeAfterCancel(t *testing.T) {
	dir := t.TempDir()
	ckpt, err := NewCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 8
	var ran int32
	jobs := make([]Job, n)
	for i := range jobs {
		i := i
		jobs[i] = Job{
			Name: fmt.Sprintf("job-%02d", i),
			Run: func(jctx context.Context) (any, error) {
				atomic.AddInt32(&ran, 1)
				if i == 2 {
					cancel() // "kill" arrives while the sweep is mid-flight
				}
				return i, jctx.Err()
			},
		}
	}
	(&Runner{Workers: 1, Checkpoint: ckpt}).Run(ctx, jobs)
	firstRan := int(ran)
	if firstRan >= n {
		t.Fatalf("cancel did not stop the sweep (ran all %d)", firstRan)
	}

	resumed, err := ResumeCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	ran = 0
	jobs2 := make([]Job, n)
	for i := range jobs2 {
		i := i
		jobs2[i] = Job{Name: fmt.Sprintf("job-%02d", i),
			Run: func(context.Context) (any, error) { atomic.AddInt32(&ran, 1); return i, nil }}
	}
	results := (&Runner{Workers: 1, Checkpoint: resumed}).Run(context.Background(), jobs2)
	if err := FirstErr(results); err != nil {
		t.Fatal(err)
	}
	if !resumed.Complete(jobNames(jobs2)) {
		t.Error("manifest not complete after resume")
	}
	if int(ran)+skippedCount(results) != n || skippedCount(results) == 0 {
		t.Errorf("resume ran %d, skipped %d, want total %d with some skipped", ran, skippedCount(results), n)
	}
}

func skippedCount(results []Result) int {
	n := 0
	for _, r := range results {
		if r.Resumed {
			n++
		}
	}
	return n
}
