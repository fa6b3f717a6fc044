package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/sweep"
)

// startServer spins up a Server over httptest and returns it with a
// client; everything shuts down with the test.
func startServer(t *testing.T, opt Options) (*Server, *Client) {
	t.Helper()
	if opt.StateDir == "" {
		opt.StateDir = t.TempDir()
	}
	if opt.Logf == nil {
		opt.Logf = t.Logf
	}
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		s.Drain(2 * time.Second)
		hs.Close()
	})
	return s, &Client{Base: hs.URL}
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	t.Cleanup(cancel)
	return ctx
}

// TestLockThenAttack drives the natural pipeline over HTTP: lock c17,
// then attack the locked result, recovering a correct key.
func TestLockThenAttack(t *testing.T) {
	_, client := startServer(t, Options{Workers: 2})
	ctx := testCtx(t)

	lockID, err := client.Submit(ctx, &JobSpec{
		Type: TypeLock,
		Lock: &LockSpec{Bench: c17Bench, Scheme: "xor", KeyBits: 4, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	lv, err := client.WaitDone(ctx, lockID)
	if err != nil {
		t.Fatal(err)
	}
	if lv.State != StateDone || lv.Error != "" {
		t.Fatalf("lock job: state=%s error=%q", lv.State, lv.Error)
	}
	var lock LockResult
	if err := json.Unmarshal(lv.Result, &lock); err != nil {
		t.Fatal(err)
	}
	if lock.KeyBits != 4 || len(lock.Key) != 4 || lock.Bench == "" {
		t.Fatalf("lock result: %d key bits, %d key lines", lock.KeyBits, len(lock.Key))
	}

	attackID, err := client.Submit(ctx, &JobSpec{
		Type: TypeAttack,
		Attack: &AttackSpec{
			Bench:  lock.Bench,
			Key:    strings.Join(lock.Key, "\n"),
			Verify: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	av, err := client.WaitDone(ctx, attackID)
	if err != nil {
		t.Fatal(err)
	}
	if av.State != StateDone {
		t.Fatalf("attack job: state=%s error=%q", av.State, av.Error)
	}
	var ar AttackResult
	if err := json.Unmarshal(av.Result, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Status != "key-found" || ar.KeyBits != 4 || len(ar.Key) != 4 {
		t.Fatalf("attack result: %+v", ar)
	}
	if !ar.Verified || ar.ErrorRate != 0 {
		t.Fatalf("recovered key failed verification: %+v", ar)
	}
	if av.Seconds <= 0 {
		t.Fatalf("attack Seconds = %v, want > 0", av.Seconds)
	}
}

// TestAttackRejectsMalformedKey: a key line whose bit is neither 0 nor
// 1 fails the attack job with an error naming the line, instead of
// activating the oracle with that bit read as 0.
func TestAttackRejectsMalformedKey(t *testing.T) {
	_, client := startServer(t, Options{Workers: 1})
	ctx := testCtx(t)
	lockID, err := client.Submit(ctx, &JobSpec{
		Type: TypeLock,
		Lock: &LockSpec{Bench: c17Bench, Scheme: "xor", KeyBits: 4, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	lv, err := client.WaitDone(ctx, lockID)
	if err != nil {
		t.Fatal(err)
	}
	var lock LockResult
	if err := json.Unmarshal(lv.Result, &lock); err != nil {
		t.Fatal(err)
	}
	if len(lock.Key) != 4 || lock.Key[1] != "keyinput1=1" {
		t.Fatalf("lock key %q, want keyinput1=1 on line 2", lock.Key)
	}
	lock.Key[1] = "keyinput1=I"
	id, err := client.Submit(ctx, &JobSpec{
		Type:   TypeAttack,
		Attack: &AttackSpec{Bench: lock.Bench, Key: strings.Join(lock.Key, "\n")},
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := client.WaitDone(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != StateFailed || !strings.Contains(v.Error, `line 2: bit "I" is not 0 or 1`) {
		t.Fatalf("attack with a malformed key: state=%s error=%q result=%s, want failed naming line 2", v.State, v.Error, v.Result)
	}
}

// TestLintJob: findings are data; a clean bench lints clean.
func TestLintJob(t *testing.T) {
	_, client := startServer(t, Options{Workers: 1})
	ctx := testCtx(t)
	id, err := client.Submit(ctx, &JobSpec{Type: TypeLint, Lint: &LintSpec{Bench: c17Bench}})
	if err != nil {
		t.Fatal(err)
	}
	v, err := client.WaitDone(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != StateDone {
		t.Fatalf("lint job: state=%s error=%q", v.State, v.Error)
	}
	var lr LintResult
	if err := json.Unmarshal(v.Result, &lr); err != nil {
		t.Fatal(err)
	}
	if lr.Errors != 0 {
		t.Fatalf("c17 lints with %d errors: %+v", lr.Errors, lr.Diagnostics)
	}
}

// TestSubmitValidation: malformed specs are rejected before anything
// persists.
func TestSubmitValidation(t *testing.T) {
	s, client := startServer(t, Options{Workers: 1})
	ctx := testCtx(t)
	bad := []*JobSpec{
		{Type: "mystery"},
		{Type: TypeAttack}, // no sub-spec
		{Type: TypeAttack, Attack: &AttackSpec{Bench: c17Bench}},              // no key
		{Type: TypeLock, Lock: &LockSpec{Bench: c17Bench, Scheme: "magic"}},   // bad scheme
		{Type: TypeSweep, Sweep: &SweepSpec{}},                                // no targets
		{Type: TypeLint, Lint: &LintSpec{Bench: c17Bench}, TimeoutMS: -5000},  // negative deadline
		{Type: TypeLint, Lint: &LintSpec{Bench: c17Bench}, Lock: &LockSpec{}}, // two sub-specs
	}
	for i, spec := range bad {
		if id, err := client.Submit(ctx, spec); err == nil {
			t.Fatalf("bad spec %d accepted as %s", i, id)
		}
	}
	// Nothing leaked into the state dir or the queue.
	specs, err := os.ReadDir(filepath.Join(s.opt.StateDir, "specs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 0 || s.q.size() != 0 {
		t.Fatalf("rejected specs left %d files, queue depth %d", len(specs), s.q.size())
	}
}

// TestCancelQueuedJob: with no workers running, a submitted job stays
// queued; cancelling removes it completely (spec file included) so a
// restart cannot resurrect it.
func TestCancelQueuedJob(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{StateDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	// No Start(): the job cannot be dispatched.
	id, err := s.Submit(&JobSpec{Type: TypeLint, Lint: &LintSpec{Bench: c17Bench}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(id); err != nil {
		t.Fatal(err)
	}
	js, ok := s.job(id)
	if !ok {
		t.Fatal("cancelled job vanished from the index")
	}
	if got := js.view().State; got != StateCancelled {
		t.Fatalf("state = %s, want cancelled", got)
	}
	if err := s.Cancel(id); err == nil {
		t.Fatal("second cancel succeeded on a terminal job")
	}
	if _, err := os.Stat(filepath.Join(dir, "specs", id+".json")); !os.IsNotExist(err) {
		t.Fatalf("cancelled job's spec file still present (err=%v)", err)
	}
	s.Drain(0)
}

// TestRestartRequeuesAndCompletes: jobs accepted but never run (the
// first daemon had no workers) survive a restart and complete under
// the second daemon, in the original submission order.
func TestRestartRequeuesAndCompletes(t *testing.T) {
	dir := t.TempDir()
	first, err := New(Options{StateDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 3; i++ {
		id, err := first.Submit(&JobSpec{Type: TypeLint, Lint: &LintSpec{Bench: c17Bench}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	first.Drain(0) // no workers ever started; jobs remain queued

	second, client := startServer(t, Options{StateDir: dir, Workers: 2})
	if second.q.size() != 0 && second.q.size() != 3 {
		t.Logf("note: %d jobs still queued at check time", second.q.size())
	}
	ctx := testCtx(t)
	for _, id := range ids {
		v, err := client.WaitDone(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if v.State != StateDone {
			t.Fatalf("job %s: state=%s error=%q", id, v.State, v.Error)
		}
	}
}

// TestRestartKeepsTerminalOutcomes: finished jobs — including genuine
// failures — are served from the manifest after a restart and do NOT
// re-run.
func TestRestartKeepsTerminalOutcomes(t *testing.T) {
	dir := t.TempDir()
	_, client := startServer(t, Options{StateDir: dir, Workers: 1})
	ctx := testCtx(t)

	okID, err := client.Submit(ctx, &JobSpec{Type: TypeLint, Lint: &LintSpec{Bench: c17Bench}})
	if err != nil {
		t.Fatal(err)
	}
	// A genuinely failing job: attack bench with no key inputs.
	badID, err := client.Submit(ctx, &JobSpec{
		Type:   TypeAttack,
		Attack: &AttackSpec{Bench: c17Bench, Key: "keyinput0=1\n"},
	})
	if err != nil {
		t.Fatal(err)
	}
	okView, err := client.WaitDone(ctx, okID)
	if err != nil {
		t.Fatal(err)
	}
	badView, err := client.WaitDone(ctx, badID)
	if err != nil {
		t.Fatal(err)
	}
	if okView.State != StateDone || badView.State != StateFailed {
		t.Fatalf("states: ok=%s bad=%s", okView.State, badView.State)
	}
	if badView.Error == "" {
		t.Fatal("failed job reports no error")
	}

	// Restart against the same state dir: both jobs come back terminal
	// with their recorded outcomes; the failed one must not re-queue.
	restarted, client2 := startServer(t, Options{StateDir: dir, Workers: 1})
	if depth := restarted.q.size(); depth != 0 {
		t.Fatalf("restart re-queued %d terminal jobs", depth)
	}
	ok2, err := client2.Job(testCtx(t), okID)
	if err != nil {
		t.Fatal(err)
	}
	if ok2.State != StateDone || string(ok2.Result) == "" {
		t.Fatalf("recovered ok job: state=%s", ok2.State)
	}
	if ok2.Seconds != okView.Seconds {
		t.Fatalf("recovered Seconds = %v, want %v", ok2.Seconds, okView.Seconds)
	}
	bad2, err := client2.Job(testCtx(t), badID)
	if err != nil {
		t.Fatal(err)
	}
	if bad2.State != StateFailed || bad2.Error != badView.Error {
		t.Fatalf("recovered failed job: state=%s error=%q", bad2.State, bad2.Error)
	}
}

// TestCacheHitKeepsSeconds: resubmitting a byte-identical spec to a
// cache-backed daemon answers from the cache, marked Cached, with the
// original run's wall clock (the satellite regression at daemon
// level).
func TestCacheHitKeepsSeconds(t *testing.T) {
	c, err := cache.Open(t.TempDir(), cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, client := startServer(t, Options{Workers: 1, Cache: c})
	ctx := testCtx(t)
	spec := func() *JobSpec {
		return &JobSpec{
			Type: TypeLock,
			Lock: &LockSpec{Bench: c17Bench, Scheme: "xor", KeyBits: 4, Seed: 3},
		}
	}
	coldID, err := client.Submit(ctx, spec())
	if err != nil {
		t.Fatal(err)
	}
	cold, err := client.WaitDone(ctx, coldID)
	if err != nil {
		t.Fatal(err)
	}
	if cold.State != StateDone || cold.Cached {
		t.Fatalf("cold: state=%s cached=%v", cold.State, cold.Cached)
	}
	warmID, err := client.Submit(ctx, spec())
	if err != nil {
		t.Fatal(err)
	}
	warm, err := client.WaitDone(ctx, warmID)
	if err != nil {
		t.Fatal(err)
	}
	if warm.State != StateDone || !warm.Cached {
		t.Fatalf("warm: state=%s cached=%v", warm.State, warm.Cached)
	}
	if warm.Seconds != cold.Seconds {
		t.Fatalf("warm Seconds = %v, want the original %v", warm.Seconds, cold.Seconds)
	}
	if string(warm.Result) != string(cold.Result) {
		t.Fatal("cached result differs from the original")
	}
	// Different tenant/priority shares the entry (scheduling fields
	// are not part of the key); NoCache opts out.
	sp := spec()
	sp.Tenant, sp.Priority = "other", 3
	id3, err := client.Submit(ctx, sp)
	if err != nil {
		t.Fatal(err)
	}
	v3, err := client.WaitDone(ctx, id3)
	if err != nil {
		t.Fatal(err)
	}
	if !v3.Cached {
		t.Fatal("tenant/priority changed the cache key")
	}
	sp = spec()
	sp.NoCache = true
	id4, err := client.Submit(ctx, sp)
	if err != nil {
		t.Fatal(err)
	}
	v4, err := client.WaitDone(ctx, id4)
	if err != nil {
		t.Fatal(err)
	}
	if v4.Cached {
		t.Fatal("no_cache job served from cache")
	}
}

// TestMetricsAndList: /metrics is well-formed and the counters track
// completed work; /jobs lists every submission.
func TestMetricsAndList(t *testing.T) {
	_, client := startServer(t, Options{Workers: 2})
	ctx := testCtx(t)
	const n = 3
	for i := 0; i < n; i++ {
		id, err := client.Submit(ctx, &JobSpec{
			Type:   TypeLint,
			Tenant: "metrics",
			Lint:   &LintSpec{Bench: c17Bench},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.WaitDone(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	text, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"rild_up 1",
		"rild_draining 0",
		"rild_jobs_accepted_total 3",
		"rild_jobs_done_total 3",
		"rild_jobs_running 0",
		"rild_queue_depth 0",
		"rild_oracle_queries_total",
		"rild_sat_solve_calls_total",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}

	resp, err := http.Get(client.Base + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Jobs []*JobView `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != n {
		t.Fatalf("listed %d jobs, want %d", len(list.Jobs), n)
	}
}

// TestSSEStream: the events stream ends with a terminal frame carrying
// the finished job.
func TestSSEStream(t *testing.T) {
	_, client := startServer(t, Options{Workers: 1})
	ctx := testCtx(t)
	targets, err := MakeLoadTargets(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	id, err := client.Submit(ctx, &JobSpec{
		Type:   TypeAttack,
		Attack: &AttackSpec{Bench: targets[0].Bench, Key: targets[0].Key},
	})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, client.Base+"/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var events []string
	var lastData string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			events = append(events, strings.TrimPrefix(line, "event: "))
		}
		if strings.HasPrefix(line, "data: ") {
			lastData = strings.TrimPrefix(line, "data: ")
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 || events[0] != "state" || events[len(events)-1] != "done" {
		t.Fatalf("event sequence %v, want state ... done", events)
	}
	var final JobView
	if err := json.Unmarshal([]byte(lastData), &final); err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("terminal frame state=%s error=%q", final.State, final.Error)
	}
}

// TestDrainRefusesSubmissions: a draining server 503s new jobs.
func TestDrainRefusesSubmissions(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{StateDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	s.Drain(time.Second)
	client := &Client{Base: hs.URL}
	_, err = client.Submit(testCtx(t), &JobSpec{Type: TypeLint, Lint: &LintSpec{Bench: c17Bench}})
	if err == nil || !strings.Contains(err.Error(), "draining") {
		t.Fatalf("submit to draining server: %v", err)
	}
	// No stray temp files survive the drain.
	for _, sub := range []string{"specs", "ckpt"} {
		entries, err := os.ReadDir(filepath.Join(dir, sub))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".tmp") {
				t.Fatalf("drain left temp file %s/%s", sub, e.Name())
			}
		}
	}
}

// TestLoadTestSmall exercises the load harness end to end at unit-test
// scale: every job terminal, none lost or duplicated.
func TestLoadTestSmall(t *testing.T) {
	_, client := startServer(t, Options{Workers: 4})
	rep, err := LoadTest(testCtx(t), client.Base, LoadOptions{
		Jobs:        40,
		Concurrency: 8,
		Tenants:     3,
		Variants:    4,
	}, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Lost != 0 || rep.Duplicated != 0 {
		t.Fatalf("load report: %s", rep)
	}
	if rep.Done != 40 {
		t.Fatalf("completed %d/40: %s", rep.Done, rep)
	}
}

// TestListBodyStreamed pins GET /jobs: the streamed body is byte for
// byte what writeJSON writes for the whole list of views, for an empty
// list and for jobs in every state, including a result and an error
// that need HTML escaping.
func TestListBodyStreamed(t *testing.T) {
	s, err := New(Options{StateDir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Drain(0) })
	check := func(name string) {
		t.Helper()
		s.mu.Lock()
		views := make([]*JobView, 0, len(s.order))
		for _, id := range s.order {
			views = append(views, s.jobs[id].view())
		}
		s.mu.Unlock()
		want := httptest.NewRecorder()
		writeJSON(want, http.StatusOK, map[string]any{"jobs": views})
		got := httptest.NewRecorder()
		s.handleList(got, httptest.NewRequest(http.MethodGet, "/jobs", nil))
		if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
			t.Fatalf("%s: status %d %q, want %d %q", name, got.Code, got.Header().Get("Content-Type"),
				want.Code, want.Header().Get("Content-Type"))
		}
		if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("%s: body\n%s\nwant\n%s", name, got.Body.Bytes(), want.Body.Bytes())
		}
	}
	check("empty")

	t0 := time.Date(2026, 1, 2, 3, 4, 5, 6, time.UTC)
	add := func(js *jobState) {
		js.submitted = t0
		js.done = make(chan struct{})
		s.mu.Lock()
		s.jobs[js.id] = js
		s.order = append(s.order, js.id)
		s.mu.Unlock()
	}
	add(&jobState{id: "jq", spec: &JobSpec{Type: TypeLint}, state: StateQueued})
	add(&jobState{id: "jr", spec: &JobSpec{Type: TypeAttack, Tenant: "t<1>", Priority: -2}, state: StateRunning,
		started: t0.Add(time.Second), progress: &ProgressEvent{Iteration: 3, Queries: 3, ElapsedMS: 12}})
	add(&jobState{id: "jd", spec: &JobSpec{Type: TypeLock, Priority: 5}, state: StateDone,
		started: t0.Add(time.Second), finished: t0.Add(2 * time.Second), seconds: 1.25, cached: true,
		outcome: &jobOutcome{Result: json.RawMessage(`{"bench":"y = AND(a<b, c>d) && e","key":["k=1"]}`)}})
	add(&jobState{id: "jf", spec: &JobSpec{Type: TypeAttack}, state: StateFailed,
		finished: t0.Add(3 * time.Second), outcome: &jobOutcome{Error: `no key inputs with prefix "<&>"`}})
	check("several")
}

// TestManifestRecordErrorLogged: when the manifest cannot be appended
// to (its path is a directory, so the open fails even as root), the
// daemon logs the lost record, and the job still ends done.
func TestManifestRecordErrorLogged(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	dir := t.TempDir()
	_, client := startServer(t, Options{StateDir: dir, Workers: 1, Logf: func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, fmt.Sprintf(format, args...))
		t.Logf(format, args...)
	}})
	if err := os.MkdirAll(sweep.ManifestPath(filepath.Join(dir, "ckpt")), 0o755); err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)
	id, err := client.Submit(ctx, &JobSpec{Type: TypeLint, Lint: &LintSpec{Bench: c17Bench}})
	if err != nil {
		t.Fatal(err)
	}
	v, err := client.WaitDone(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != StateDone {
		t.Fatalf("job ended %s (%s), want done despite the lost record", v.State, v.Error)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, l := range lines {
		if strings.Contains(l, id) && strings.Contains(l, "manifest record") {
			return
		}
	}
	t.Fatalf("no log line names the lost manifest record of %s:\n%s", id, strings.Join(lines, "\n"))
}

// TestFinishedJobDropsSpecText: a done or cancelled job keeps only the
// spec fields its view reports, in the running daemon and after a
// restart, while its spec file keeps the whole spec.
func TestFinishedJobDropsSpecText(t *testing.T) {
	dir := t.TempDir()
	s, client := startServer(t, Options{StateDir: dir, Workers: 1})
	ctx := testCtx(t)
	spec := &JobSpec{Type: TypeLint, Tenant: "t1", Priority: 3, Lint: &LintSpec{Bench: c17Bench}}
	id, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.WaitDone(ctx, id); err != nil {
		t.Fatal(err)
	}
	kept := func(s *Server, id string) *JobSpec {
		t.Helper()
		js, ok := s.job(id)
		if !ok {
			t.Fatalf("job %s unknown", id)
		}
		js.mu.Lock()
		defer js.mu.Unlock()
		return js.spec
	}
	want := JobSpec{Type: TypeLint, Tenant: "t1", Priority: 3}
	if got := kept(s, id); *got != want {
		t.Fatalf("finished job keeps spec %+v, want %+v", got, want)
	}
	raw, err := os.ReadFile(s.specPath(id))
	if err != nil {
		t.Fatal(err)
	}
	var pj persistedJob
	if err := json.Unmarshal(raw, &pj); err != nil || pj.Spec.Lint == nil || pj.Spec.Lint.Bench != c17Bench {
		t.Fatalf("spec file lost the spec: %s (%v)", raw, err)
	}

	restarted, err := New(Options{StateDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { restarted.Drain(0) })
	if got := kept(restarted, id); *got != want {
		t.Fatalf("recovered job keeps spec %+v, want %+v", got, want)
	}
	// Not started, so a submission stays queued until cancelled.
	qid, err := restarted.Submit(&JobSpec{Type: TypeLint, Tenant: "t2", Lint: &LintSpec{Bench: c17Bench}})
	if err != nil {
		t.Fatal(err)
	}
	if err := restarted.Cancel(qid); err != nil {
		t.Fatal(err)
	}
	if got := kept(restarted, qid); *got != (JobSpec{Type: TypeLint, Tenant: "t2"}) {
		t.Fatalf("cancelled job keeps spec %+v", got)
	}
}
