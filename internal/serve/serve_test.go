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
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/baselines"
	"repro/internal/cache"
	"repro/internal/netlist"
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
	return s, serveHTTP(t, s)
}

// serveHTTP starts s's workers and serves its handler until the test
// ends.
func serveHTTP(t *testing.T, s *Server) *Client {
	t.Helper()
	s.Start()
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		s.Drain(2 * time.Second)
		hs.Close()
	})
	return &Client{Base: hs.URL}
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	t.Cleanup(cancel)
	return ctx
}

// recordLogs returns a Logf that logs each line to t and keeps it, and
// a check that some kept line contains every one of want.
func recordLogs(t *testing.T) (func(format string, args ...any), func(want ...string) bool) {
	var mu sync.Mutex
	var lines []string
	logf := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, fmt.Sprintf(format, args...))
		t.Logf(format, args...)
	}
	logged := func(want ...string) bool {
		mu.Lock()
		defer mu.Unlock()
		return slices.ContainsFunc(lines, func(l string) bool {
			for _, w := range want {
				if !strings.Contains(l, w) {
					return false
				}
			}
			return true
		})
	}
	return logf, logged
}

// quickAttack is an attack job on the load harness's first target, c17
// locked with 5 XOR key gates: it ends key-found in milliseconds.
func quickAttack(t *testing.T) *JobSpec {
	t.Helper()
	targets, err := MakeLoadTargets(1)
	if err != nil {
		t.Fatal(err)
	}
	return &JobSpec{Type: TypeAttack, Attack: &AttackSpec{Bench: targets[0].Bench, Key: targets[0].Key}}
}

// lockC17 locks c17 with keyBits XOR key gates at seed, as
// `locker -scheme xor` does, and returns the locked bench and its key
// lines.
func lockC17(t *testing.T, keyBits int, seed int64) (string, []string) {
	t.Helper()
	orig, err := netlist.ParseBench("c17", strings.NewReader(c17Bench))
	if err != nil {
		t.Fatal(err)
	}
	l, err := baselines.XORLock(orig, keyBits, seed)
	if err != nil {
		t.Fatal(err)
	}
	var bench strings.Builder
	if err := l.Netlist.WriteBench(&bench); err != nil {
		t.Fatal(err)
	}
	return bench.String(), l.Netlist.KeyLines(l.KeyPos, l.Key)
}

// TestLockThenAttack drives the natural pipeline: lock c17 with 4 XOR
// key gates, then attack the locked result over HTTP, recovering a
// correct key.
func TestLockThenAttack(t *testing.T) {
	_, client := startServer(t, Options{Workers: 2})
	ctx := testCtx(t)

	bench, key := lockC17(t, 4, 7)
	if len(key) != 4 {
		t.Fatalf("lock: %d key lines, want 4", len(key))
	}
	attackID, err := client.Submit(ctx, &JobSpec{
		Type: TypeAttack,
		Attack: &AttackSpec{
			Bench:  bench,
			Key:    strings.Join(key, "\n"),
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
	bench, key := lockC17(t, 4, 1)
	if len(key) != 4 || key[1] != "keyinput1=1" {
		t.Fatalf("lock key %q, want keyinput1=1 on line 2", key)
	}
	key[1] = "keyinput1=I"
	id, err := client.Submit(ctx, &JobSpec{
		Type:   TypeAttack,
		Attack: &AttackSpec{Bench: bench, Key: strings.Join(key, "\n")},
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

// TestSubmitValidation: malformed specs are rejected before anything
// persists.
func TestSubmitValidation(t *testing.T) {
	s, client := startServer(t, Options{Workers: 1})
	ctx := testCtx(t)
	good := quickAttack(t).Attack
	bad := []*JobSpec{
		{Type: "mystery"},
		{Type: TypeAttack}, // no sub-spec
		{Type: TypeAttack, Attack: &AttackSpec{Bench: c17Bench}}, // no key
		{Type: TypeAttack, Attack: good, TimeoutMS: -5000},       // negative deadline
	}
	for i, spec := range bad {
		if id, err := client.Submit(ctx, spec); err == nil {
			t.Fatalf("bad spec %d accepted as %s", i, id)
		}
	}
	// A body that sends a field JobSpec does not name gets a 400 from the
	// decoder naming the field: tenant and priority, and the lock, lint
	// and sweep sub-specs, all of which earlier daemons took. A type
	// other than attack gets a 400 naming it.
	attack, err := json.Marshal(good)
	if err != nil {
		t.Fatal(err)
	}
	bench, err := json.Marshal(c17Bench)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ body, want string }{
		{`{"type":"attack","tenant":"a","attack":` + string(attack) + `}`, `unknown field "tenant"`},
		{`{"type":"attack","priority":3,"attack":` + string(attack) + `}`, `unknown field "priority"`},
		{`{"type":"lock","lock":{"bench":` + string(bench) + `,"scheme":"xor","key_bits":4}}`, `unknown field "lock"`},
		{`{"type":"lint","lint":{"bench":` + string(bench) + `}}`, `unknown field "lint"`},
		{`{"type":"sweep","sweep":{"targets":[` + string(attack) + `]}}`, `unknown field "sweep"`},
		{`{"type":"sweep","attack":` + string(attack) + `}`, `unknown job type "sweep"`},
	} {
		resp, err := http.Post(client.Base+"/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var e struct{ Error string }
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, tc.want) {
			t.Fatalf("body %.60s…: status %d, error %q; want 400 with %s", tc.body, resp.StatusCode, e.Error, tc.want)
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
	id, err := s.Submit(quickAttack(t))
	if err != nil {
		t.Fatal(err)
	}
	// The journal a drained run of the job would have left behind.
	if err := os.WriteFile(journalPath(s, id), []byte("journal\n"), 0o600); err != nil {
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
	if _, err := os.Stat(journalPath(s, id)); !os.IsNotExist(err) {
		t.Fatalf("cancelled job's journal still present (err=%v)", err)
	}
	s.Drain(0)
}

// TestRestartRequeuesAndCompletes: jobs accepted but never run (the
// first daemon had no workers) survive a restart, are queued again in
// the original submission order and complete under the second daemon.
// The submissions may share a millisecond: their Seq orders them. So
// does a spec file that still holds the tenant and priority fields an
// earlier daemon wrote and no Seq: recovery's json.Unmarshal skips
// them.
func TestRestartRequeuesAndCompletes(t *testing.T) {
	dir := t.TempDir()
	first, err := New(Options{StateDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	spec := quickAttack(t)
	var ids []string
	var last time.Time
	for i := 0; i < 3; i++ {
		id, err := first.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		last = first.jobs[id].submitted
	}
	first.Drain(0) // no workers ever started; jobs remain queued
	attack, err := json.Marshal(spec.Attack)
	if err != nil {
		t.Fatal(err)
	}
	const legacyID = "j0000000000000000aa"
	legacy := fmt.Sprintf(`{
  "id": %q,
  "submitted_unix_ms": %d,
  "spec": {
    "type": "attack",
    "tenant": "alice",
    "priority": 3,
    "attack": %s
  }
}`, legacyID, last.UnixMilli()+1, attack)
	if err := os.WriteFile(filepath.Join(dir, "specs", legacyID+".json"), []byte(legacy), 0o600); err != nil {
		t.Fatal(err)
	}
	ids = append(ids, legacyID)

	second, err := New(Options{StateDir: dir, Workers: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	var queued []string
	second.q.mu.Lock()
	for _, js := range second.q.jobs {
		queued = append(queued, js.id)
	}
	second.q.mu.Unlock()
	if !slices.Equal(queued, ids) {
		t.Fatalf("recovered queue %v, want submission order %v", queued, ids)
	}
	client := serveHTTP(t, second)
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

// TestRecoverOrdersBySeq: spec files that share a submission
// millisecond re-queue in Seq order, not in the order of their random
// IDs, and the recovered daemon numbers its next submission after the
// highest Seq it found.
func TestRecoverOrdersBySeq(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "specs"), 0o755); err != nil {
		t.Fatal(err)
	}
	attack, err := json.Marshal(quickAttack(t).Attack)
	if err != nil {
		t.Fatal(err)
	}
	// Seq order is the reverse of ID order.
	ids := []string{"j0000000000000000c3", "j0000000000000000b2", "j0000000000000000a1"}
	for i, id := range ids {
		spec := fmt.Sprintf(`{"id": %q, "submitted_unix_ms": 1700000000000, "seq": %d, "spec": {"type": "attack", "attack": %s}}`,
			id, i+1, attack)
		if err := os.WriteFile(filepath.Join(dir, "specs", id+".json"), []byte(spec), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	s, err := New(Options{StateDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(0)
	var queued []string
	s.q.mu.Lock()
	for _, js := range s.q.jobs {
		queued = append(queued, js.id)
	}
	s.q.mu.Unlock()
	if !slices.Equal(queued, ids) {
		t.Fatalf("recovered queue %v, want Seq order %v", queued, ids)
	}
	id, err := s.Submit(quickAttack(t))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(s.specPath(id))
	if err != nil {
		t.Fatal(err)
	}
	var pj persistedJob
	if err := json.Unmarshal(raw, &pj); err != nil {
		t.Fatal(err)
	}
	if pj.Seq != int64(len(ids)+1) {
		t.Fatalf("next submission has seq %d, want %d", pj.Seq, len(ids)+1)
	}
}

// TestRecoverRemovedJobKinds opens a state directory that an earlier
// daemon, which also ran lock, lint and sweep jobs, left behind: a
// finished lint job with its done manifest line, an unfinished sweep
// job and an unfinished attack job. The finished job comes back done
// with its recorded result and keeps its spec file, since it never runs
// again; the unfinished sweep job fails validation and is dropped with
// a log line; the attack job re-queues and recovers its key.
func TestRecoverRemovedJobKinds(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "specs"), 0o755); err != nil {
		t.Fatal(err)
	}
	attack, err := json.Marshal(quickAttack(t).Attack)
	if err != nil {
		t.Fatal(err)
	}
	bench, err := json.Marshal(c17Bench)
	if err != nil {
		t.Fatal(err)
	}
	const lintID, sweepID, attackID = "j0000000000000000a1", "j0000000000000000b2", "j0000000000000000c3"
	for i, f := range []struct{ id, spec string }{
		{lintID, `{"type": "lint", "lint": {"bench": ` + string(bench) + `}}`},
		{sweepID, `{"type": "sweep", "sweep": {"targets": [` + string(attack) + `]}}`},
		{attackID, `{"type": "attack", "attack": ` + string(attack) + `}`},
	} {
		raw := fmt.Sprintf(`{"id": %q, "submitted_unix_ms": 1700000000000, "seq": %d, "spec": %s}`, f.id, i+1, f.spec)
		if err := os.WriteFile(filepath.Join(dir, "specs", f.id+".json"), []byte(raw), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	const lintResult = `{"errors":0,"warnings":0}`
	if err := os.MkdirAll(filepath.Join(dir, "ckpt"), 0o755); err != nil {
		t.Fatal(err)
	}
	done := &manifestEntry{Name: lintID, Status: "done", Value: json.RawMessage(`{"result":` + lintResult + `}`), Seconds: 0.25}
	if err := os.WriteFile(manifestPath(filepath.Join(dir, "ckpt")), manifestLog(t, v2Header, done), 0o600); err != nil {
		t.Fatal(err)
	}

	logf, logged := recordLogs(t)
	s, err := New(Options{StateDir: dir, Workers: 1, Logf: logf})
	if err != nil {
		t.Fatal(err)
	}
	client := serveHTTP(t, s)
	ctx := testCtx(t)

	lv, err := client.Job(ctx, lintID)
	if err != nil {
		t.Fatal(err)
	}
	var result bytes.Buffer
	if err := json.Compact(&result, lv.Result); err != nil {
		t.Fatal(err)
	}
	if lv.Type != "lint" || lv.State != StateDone || result.String() != lintResult || lv.Seconds != 0.25 {
		t.Fatalf("finished lint job: type=%s state=%s result=%s seconds=%v, want done with its recorded result",
			lv.Type, lv.State, &result, lv.Seconds)
	}
	if _, err := os.Stat(s.specPath(lintID)); err != nil {
		t.Fatalf("finished lint job lost its spec file: %v", err)
	}

	if _, ok := s.job(sweepID); ok {
		t.Fatal("unfinished sweep job recovered")
	}
	if _, err := os.Stat(s.specPath(sweepID)); !os.IsNotExist(err) {
		t.Fatalf("dropped sweep job's spec file still present (err=%v)", err)
	}
	if !logged(sweepID, `unknown job type "sweep"`) {
		t.Fatalf("no log line names the dropped sweep job %s and its type", sweepID)
	}

	av, err := client.WaitDone(ctx, attackID)
	if err != nil {
		t.Fatal(err)
	}
	var ar AttackResult
	if av.State != StateDone || json.Unmarshal(av.Result, &ar) != nil || ar.Status != "key-found" {
		t.Fatalf("recovered attack job: state=%s error=%q result=%s, want key-found", av.State, av.Error, av.Result)
	}
}

// TestRestartKeepsTerminalOutcomes: finished jobs — including genuine
// failures — are served from the manifest after a restart and do NOT
// re-run.
func TestRestartKeepsTerminalOutcomes(t *testing.T) {
	dir := t.TempDir()
	_, client := startServer(t, Options{StateDir: dir, Workers: 1})
	ctx := testCtx(t)

	okID, err := client.Submit(ctx, quickAttack(t))
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
	attack := quickAttack(t).Attack
	spec := func() *JobSpec { return &JobSpec{Type: TypeAttack, Attack: attack} }
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
	// A different job timeout shares the entry (it bounds the run, not
	// the result, so it is not part of the key); NoCache opts out.
	sp := spec()
	sp.TimeoutMS = 60_000
	id3, err := client.Submit(ctx, sp)
	if err != nil {
		t.Fatal(err)
	}
	v3, err := client.WaitDone(ctx, id3)
	if err != nil {
		t.Fatal(err)
	}
	if !v3.Cached {
		t.Fatal("the job timeout changed the cache key")
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
		id, err := client.Submit(ctx, quickAttack(t))
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
	targets, err := MakeLoadTargets(1)
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
	_, err = client.Submit(testCtx(t), quickAttack(t))
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
	add(&jobState{id: "jq", spec: &JobSpec{Type: TypeAttack}, state: StateQueued})
	add(&jobState{id: "jr", spec: &JobSpec{Type: TypeAttack}, state: StateRunning,
		started: t0.Add(time.Second), progress: &ProgressEvent{Iteration: 3, Queries: 3, ElapsedMS: 12}})
	add(&jobState{id: "jd", spec: &JobSpec{Type: TypeAttack}, state: StateDone,
		started: t0.Add(time.Second), finished: t0.Add(2 * time.Second), seconds: 1.25, cached: true,
		outcome: &jobOutcome{Result: json.RawMessage(`{"bench":"y = AND(a<b, c>d) && e","key":["k=1"]}`)}})
	add(&jobState{id: "jf", spec: &JobSpec{Type: TypeAttack}, state: StateFailed,
		finished: t0.Add(3 * time.Second), outcome: &jobOutcome{Error: `no key inputs with prefix "<&>"`}})
	check("several")
}

// TestManifestRecordErrorLogged: when the manifest cannot be appended
// to (its path is a directory, so the open fails even as root), the
// daemon logs the lost record, and the job still ends done. It keeps
// its DIP journal, which the run after a restart resumes from.
func TestManifestRecordErrorLogged(t *testing.T) {
	logf, logged := recordLogs(t)
	dir := t.TempDir()
	s, client := startServer(t, Options{StateDir: dir, Workers: 1, Logf: logf})
	if err := os.MkdirAll(manifestPath(filepath.Join(dir, "ckpt")), 0o755); err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)
	id, err := client.Submit(ctx, quickAttack(t))
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
	if !logged(id, "manifest record") {
		t.Fatalf("no log line names the lost manifest record of %s", id)
	}
	if _, err := os.Stat(journalPath(s, id)); err != nil {
		t.Fatalf("the unrecorded job lost its journal: %v", err)
	}
}

// journalPath is the DIP journal of job id in s's state directory.
func journalPath(s *Server, id string) string { return attack.JournalPath(s.ckpt, id) }

// ckptFiles lists the names in the state directory's ckpt/.
func ckptFiles(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(filepath.Join(dir, "ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		names = append(names, de.Name())
	}
	return names
}

// TestFinishedJobRemovesJournal: once a finished job's outcome is in
// the manifest, its DIP journal goes, so ckpt/ holds only the
// manifest; a restart still serves the recorded result.
func TestFinishedJobRemovesJournal(t *testing.T) {
	dir := t.TempDir()
	_, client := startServer(t, Options{StateDir: dir, Workers: 1})
	ctx := testCtx(t)
	id, err := client.Submit(ctx, quickAttack(t))
	if err != nil {
		t.Fatal(err)
	}
	v, err := client.WaitDone(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != StateDone {
		t.Fatalf("job ended %s (%s), want done", v.State, v.Error)
	}
	if got := ckptFiles(t, dir); !slices.Equal(got, []string{"manifest.json"}) {
		t.Fatalf("ckpt/ holds %v after the job finished, want only the manifest", got)
	}
	_, client2 := startServer(t, Options{StateDir: dir, Workers: 1})
	v2, err := client2.Job(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if v2.State != StateDone || !bytes.Equal(v2.Result, v.Result) {
		t.Fatalf("after a restart: state=%s result=%s, want done with %s", v2.State, v2.Result, v.Result)
	}
}

// TestRecoverRemovesFinishedJournals: a journal beside a job that the
// manifest records finished, left by a crash between the record and
// the removal or by an earlier daemon, goes when the daemon opens the
// state directory; the journal of an unfinished job stays for its run
// to resume from.
func TestRecoverRemovesFinishedJournals(t *testing.T) {
	dir := t.TempDir()
	first, err := New(Options{StateDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	// No Start(): neither job runs under the first daemon.
	doneID, err := first.Submit(quickAttack(t))
	if err != nil {
		t.Fatal(err)
	}
	queuedID, err := first.Submit(quickAttack(t))
	if err != nil {
		t.Fatal(err)
	}
	out := &jobOutcome{Result: json.RawMessage(`{"status":"key-found"}`)}
	if err := first.manifest.record(doneID, out, 0.5); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{doneID, queuedID} {
		if err := os.WriteFile(journalPath(first, id), []byte("journal\n"), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	first.Drain(0)

	s, err := New(Options{StateDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(0)
	if _, err := os.Stat(journalPath(s, doneID)); !os.IsNotExist(err) {
		t.Fatalf("recorded job's journal still present (err=%v)", err)
	}
	if _, err := os.Stat(journalPath(s, queuedID)); err != nil {
		t.Fatalf("unfinished job lost its journal: %v", err)
	}
	js, ok := s.job(doneID)
	if !ok || js.view().State != StateDone {
		t.Fatalf("recorded job not recovered done")
	}
}

// TestFinishedJobDropsSpecText: a done or cancelled job keeps only the
// spec field its view reports, in the running daemon and after a
// restart, while its spec file keeps the whole spec.
func TestFinishedJobDropsSpecText(t *testing.T) {
	dir := t.TempDir()
	s, client := startServer(t, Options{StateDir: dir, Workers: 1})
	ctx := testCtx(t)
	spec := quickAttack(t)
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
	want := JobSpec{Type: TypeAttack}
	if got := kept(s, id); *got != want {
		t.Fatalf("finished job keeps spec %+v, want %+v", got, want)
	}
	raw, err := os.ReadFile(s.specPath(id))
	if err != nil {
		t.Fatal(err)
	}
	var pj persistedJob
	if err := json.Unmarshal(raw, &pj); err != nil || pj.Spec.Attack == nil || *pj.Spec.Attack != *spec.Attack {
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
	qid, err := restarted.Submit(quickAttack(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := restarted.Cancel(qid); err != nil {
		t.Fatal(err)
	}
	if got := kept(restarted, qid); *got != want {
		t.Fatalf("cancelled job keeps spec %+v", got)
	}
}

// TestCacheKeyPins pins the cache keys of two attack jobs, which set
// different options and one of which has bench text that JSON escapes,
// so a change to key derivation that would orphan every cached job
// shows here. The job timeout is a scheduling field and leaves the key
// as it is.
func TestCacheKeyPins(t *testing.T) {
	c, err := cache.Open(t.TempDir(), cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := &Server{opt: Options{Cache: c}}
	target := AttackSpec{Bench: c17Bench, Key: "keyinput0=1\nkeyinput1=0\n", TimeoutMS: 2000, Portfolio: 2, Verify: true}
	second := AttackSpec{Bench: c17Bench + "# <second> & last\n", Key: "keyinput0=0\n", KeyPrefix: "key", AppSAT: true, BVA: true}
	const attackKey = "2f616ed67873467eb7e52caf1e46aad8255ca07313c23025e870a9fc388c8cc9"
	for _, tc := range []struct {
		name string
		spec JobSpec
		want string
	}{
		{"attack", JobSpec{Type: TypeAttack, Attack: &target}, attackKey},
		{"scheduled attack", JobSpec{Type: TypeAttack, TimeoutMS: 9000, Attack: &target}, attackKey},
		{"attack with every option", JobSpec{Type: TypeAttack, Attack: &second},
			"1a69c04288086a62d6c334659eaa436c12a8a41e0a0131bd3e3a1fc402aff292"},
	} {
		k, ok := s.cacheKey(&tc.spec)
		if !ok {
			t.Fatalf("%s: no cache key", tc.name)
		}
		if got := k.String(); got != tc.want {
			t.Errorf("%s job key %s, want %s", tc.name, got, tc.want)
		}
	}
}
