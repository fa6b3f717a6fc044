package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/attack"
	"repro/internal/cache"
	"repro/internal/durable"
	"repro/internal/sat"
	"repro/internal/sweep"
)

// Options configures a Server.
type Options struct {
	// StateDir is the daemon's persistent root: StateDir/specs holds
	// one durably-written spec file per accepted job, StateDir/ckpt
	// holds the job manifest (manifest.go) plus the DIP journal of each
	// attack job that has run but is not recorded finished. Required.
	StateDir string
	// Workers is the job-runner pool size (0 = all CPUs, as
	// sweep.Runner).
	Workers int
	// Cache, when non-nil, serves repeat submissions of byte-identical
	// specs without running them (and preserves their original
	// wall-clock seconds).
	Cache *cache.Cache
	// DefaultTimeout bounds jobs whose spec sets no timeout (0 = no
	// deadline).
	DefaultTimeout time.Duration
	// Logf receives operational log lines (nil = silent).
	Logf func(format string, args ...any)
}

// jobOutcome is the terminal envelope persisted for every finished
// job: either a result payload or a failure message. Recording genuine
// failures as "done" manifest entries (with the error inside the
// envelope) is deliberate — a job that failed on its merits must not
// re-run on every daemon restart. Interrupted jobs are not recorded,
// so they run again.
type jobOutcome struct {
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// Job states reported by the API.
const (
	StateQueued      = "queued"
	StateRunning     = "running"
	StateDone        = "done"
	StateFailed      = "failed"
	StateCancelled   = "cancelled"
	StateInterrupted = "interrupted" // drain caught it mid-run; resumes next start
)

// jobState is one job's live record.
type jobState struct {
	id        string
	spec      *JobSpec
	submitted time.Time
	seq       int64

	mu        sync.Mutex
	state     string
	started   time.Time
	finished  time.Time
	seconds   float64
	cached    bool
	outcome   *jobOutcome
	progress  *ProgressEvent
	cancel    context.CancelFunc
	cancelled bool // user asked; distinguishes cancel from drain
	subs      map[int]chan []byte
	nextSub   int
	done      chan struct{} // closed on any terminal (or interrupted) transition
}

// ProgressEvent is one SSE progress frame: the attack's DIP iteration,
// live oracle queries, and cumulative solver counters.
type ProgressEvent struct {
	Iteration int       `json:"iteration"`
	Queries   int       `json:"queries"`
	ElapsedMS int64     `json:"elapsed_ms"`
	Solver    sat.Stats `json:"solver"`
}

// persistedJob is the on-disk spec file: everything needed to re-queue
// the job after a restart. Seq numbers a daemon's submissions, so jobs
// submitted within one millisecond re-queue in submission order; spec
// files written before it existed hold none.
type persistedJob struct {
	ID        string   `json:"id"`
	Submitted int64    `json:"submitted_unix_ms"`
	Seq       int64    `json:"seq,omitempty"`
	Spec      *JobSpec `json:"spec"`
}

// Server is the rild daemon core, independent of its HTTP transport
// (http.go wires the handlers, cmd/rild the process).
type Server struct {
	opt      Options
	runner   *sweep.Runner
	ckpt     string // StateDir/ckpt: the manifest and the DIP journals
	manifest *manifest
	q        *queue
	seq      atomic.Int64 // the last submission's persistedJob.Seq

	mu    sync.Mutex
	jobs  map[string]*jobState
	order []string // submission order for listing

	runCtx   context.Context
	stopRun  context.CancelFunc
	unhook   func() bool // detaches the queue-wake AfterFunc
	wg       sync.WaitGroup
	draining atomic.Bool
	started  time.Time

	running   atomic.Int64 // jobs currently executing
	accepted  atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	cancelled atomic.Int64
	cacheHits atomic.Int64
	conflicts atomic.Int64 // solver conflicts accumulated from finished jobs
}

// New opens (or creates) the state directory, loads the job manifest,
// re-admits every persisted job — finished ones as terminal records,
// unfinished ones back onto the queue — and returns a Server ready to
// Start.
func New(opt Options) (*Server, error) {
	if opt.StateDir == "" {
		return nil, fmt.Errorf("serve: StateDir is required")
	}
	if err := os.MkdirAll(filepath.Join(opt.StateDir, "specs"), 0o755); err != nil {
		return nil, err
	}
	ckpt := filepath.Join(opt.StateDir, "ckpt")
	m, err := openManifest(ckpt)
	if err != nil {
		return nil, err
	}
	s := &Server{
		opt:      opt,
		runner:   &sweep.Runner{Workers: opt.Workers},
		ckpt:     ckpt,
		manifest: m,
		q:        newQueue(),
		jobs:     map[string]*jobState{},
		started:  time.Now(),
	}
	s.runCtx, s.stopRun = context.WithCancel(context.Background())
	s.unhook = context.AfterFunc(s.runCtx, s.q.wake)
	if m.degraded {
		s.logf("serve: job manifest corrupt; unfinished jobs restart from their journals")
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.opt.Logf != nil {
		s.opt.Logf(format, args...)
	}
}

// recover loads every persisted spec, replays terminal outcomes from
// the manifest, and re-queues the rest in original submission order:
// by submission millisecond, then Seq, then ID. Numbering of new
// submissions continues from the highest Seq recovered.
func (s *Server) recover() error {
	dir := filepath.Join(s.opt.StateDir, "specs")
	names, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var loaded []*jobState
	for _, de := range names {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".json") {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			return err
		}
		var pj persistedJob
		if err := json.Unmarshal(raw, &pj); err != nil || pj.ID == "" || pj.Spec == nil {
			// A torn spec file means the submission never got its HTTP
			// response (the durable write happens first); drop it.
			s.logf("serve: dropping unreadable spec %s: %v", de.Name(), err)
			if err := os.Remove(filepath.Join(dir, de.Name())); err != nil {
				return err
			}
			continue
		}
		// A finished job never runs again, so only an unfinished one
		// must still be a valid spec.
		e, finished := s.manifest.completed(pj.ID)
		if !finished {
			if err := pj.Spec.Validate(); err != nil {
				s.logf("serve: dropping invalid persisted spec %s: %v", pj.ID, err)
				if err := os.Remove(filepath.Join(dir, de.Name())); err != nil {
					return err
				}
				continue
			}
		}
		js := &jobState{
			id:        pj.ID,
			spec:      pj.Spec,
			submitted: time.UnixMilli(pj.Submitted),
			seq:       pj.Seq,
			state:     StateQueued,
			subs:      map[int]chan []byte{},
			done:      make(chan struct{}),
		}
		if pj.Seq > s.seq.Load() {
			s.seq.Store(pj.Seq)
		}
		if finished {
			// Its recorded outcome answers for it from now on: a journal
			// left by a crash between record and removal, or by an
			// earlier daemon, goes.
			s.removeJournal(pj.ID)
			var out jobOutcome
			if len(e.Value) > 0 {
				if err := json.Unmarshal(e.Value, &out); err != nil {
					out = jobOutcome{Error: fmt.Sprintf("unreadable recorded outcome: %v", err)}
				}
			}
			js.outcome = &out
			js.seconds = e.Seconds
			js.state = StateDone
			if out.Error != "" {
				js.state = StateFailed
			}
			js.dropSpecText()
			close(js.done)
		}
		loaded = append(loaded, js)
	}
	sort.Slice(loaded, func(i, j int) bool {
		a, b := loaded[i], loaded[j]
		if !a.submitted.Equal(b.submitted) {
			return a.submitted.Before(b.submitted)
		}
		if a.seq != b.seq {
			return a.seq < b.seq
		}
		return a.id < b.id
	})
	requeued := 0
	for _, js := range loaded {
		s.jobs[js.id] = js
		s.order = append(s.order, js.id)
		if js.state == StateQueued {
			s.q.push(js)
			requeued++
		}
	}
	if len(loaded) > 0 {
		s.logf("serve: recovered %d jobs (%d re-queued)", len(loaded), requeued)
	}
	return nil
}

// Start launches the worker pool.
func (s *Server) Start() {
	n := s.runner.Workers
	if n <= 0 {
		n = defaultWorkers()
	}
	for i := 0; i < n; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// defaultWorkers sizes the pool when Options.Workers is 0.
func defaultWorkers() int { return runtime.NumCPU() }

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		js, ok := s.q.popWait(s.runCtx)
		if !ok {
			return
		}
		s.runJob(js)
	}
}

// newID mints a crash-unique job ID.
func newID() (string, error) {
	var b [9]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	return "j" + hex.EncodeToString(b[:]), nil
}

// Submit validates, persists and enqueues a job, returning its ID.
// The spec file is durably on disk before Submit returns — an accepted
// job survives any later crash — and a draining server refuses.
func (s *Server) Submit(spec *JobSpec) (string, error) {
	if s.draining.Load() {
		return "", ErrDraining
	}
	if err := spec.Validate(); err != nil {
		return "", err
	}
	id, err := newID()
	if err != nil {
		return "", err
	}
	js := &jobState{
		id:        id,
		spec:      spec,
		submitted: time.Now(),
		seq:       s.seq.Add(1),
		state:     StateQueued,
		subs:      map[int]chan []byte{},
		done:      make(chan struct{}),
	}
	raw, err := json.MarshalIndent(persistedJob{
		ID: id, Submitted: js.submitted.UnixMilli(), Seq: js.seq, Spec: spec,
	}, "", "  ")
	if err != nil {
		return "", err
	}
	if err := durable.WriteFile(s.specPath(id), raw); err != nil {
		return "", err
	}
	s.mu.Lock()
	s.jobs[id] = js
	s.order = append(s.order, id)
	s.mu.Unlock()
	if !s.q.push(js) {
		// Drain began between the check and the push; withdraw the job
		// completely so the rejected submission leaves no trace.
		s.mu.Lock()
		delete(s.jobs, id)
		for i := len(s.order) - 1; i >= 0; i-- {
			if s.order[i] == id {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
		s.mu.Unlock()
		if err := os.Remove(s.specPath(id)); err != nil && !errors.Is(err, os.ErrNotExist) {
			s.logf("serve: withdraw %s: %v", id, err)
		}
		return "", ErrDraining
	}
	s.accepted.Add(1)
	return id, nil
}

// ErrDraining rejects submissions to a draining server.
var ErrDraining = errors.New("serve: draining, not accepting jobs")

// ErrUnknownJob reports a job ID the server has no record of.
var ErrUnknownJob = errors.New("serve: unknown job")

func (s *Server) specPath(id string) string {
	return filepath.Join(s.opt.StateDir, "specs", id+".json")
}

// job looks up a job by ID.
func (s *Server) job(id string) (*jobState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	js, ok := s.jobs[id]
	return js, ok
}

// Cancel stops a queued or running job. Queued jobs are removed before
// they ever start; running jobs get their context cancelled and are
// recorded cancelled when the runner returns.
func (s *Server) Cancel(id string) error {
	js, ok := s.job(id)
	if !ok {
		return ErrUnknownJob
	}
	if q := s.q.remove(id); q != nil {
		s.markCancelled(js)
		return nil
	}
	js.mu.Lock()
	defer js.mu.Unlock()
	switch js.state {
	case StateRunning:
		js.cancelled = true
		if js.cancel != nil {
			js.cancel()
		}
		return nil
	case StateQueued:
		// Raced with a worker between remove and dispatch; treat as
		// running-any-moment and let finish() observe the flag.
		js.cancelled = true
		return nil
	}
	return fmt.Errorf("serve: job %s is %s: %w", id, js.state, ErrTerminal)
}

// ErrTerminal reports a cancel on an already-finished job.
var ErrTerminal = errors.New("already finished")

// cacheKey derives the job's cache key from its canonicalized spec and
// the attack search version. Only the payload-defining fields
// participate: the job timeout bounds a run, not its result, so the
// same circuit submitted under two deadlines shares one entry.
func (s *Server) cacheKey(spec *JobSpec) (cache.Key, bool) {
	if s.opt.Cache == nil || spec.NoCache {
		return cache.Key{}, false
	}
	payload := struct {
		Type   string      `json:"type"`
		Attack *AttackSpec `json:"attack,omitempty"`
	}{spec.Type, spec.Attack}
	k, err := cache.NewKey("serve/job").Options("spec", payload).Int("search", attack.SearchVersion).Key()
	if err != nil {
		return cache.Key{}, false
	}
	return k, true
}

// runJob executes one dequeued job end to end: cache probe, live run
// via the sweep runner (deadline + panic isolation), then terminal
// accounting through finish.
func (s *Server) runJob(js *jobState) {
	s.running.Add(1)
	defer s.running.Add(-1)

	js.mu.Lock()
	if js.cancelled {
		// Cancelled after dispatch but before we got here.
		js.mu.Unlock()
		s.markCancelled(js)
		return
	}
	js.state = StateRunning
	js.started = time.Now()
	js.mu.Unlock()
	s.publish(js, "running", nil)

	if k, ok := s.cacheKey(js.spec); ok {
		if raw, seconds, hit := s.opt.Cache.GetTimed(k); hit {
			var out jobOutcome
			if err := json.Unmarshal(raw, &out); err == nil {
				s.cacheHits.Add(1)
				// Fold the hit into the manifest so restarts don't
				// depend on the cache still holding the entry. A run
				// that a drain interrupted may have left a journal.
				if s.record(js.id, &out, seconds) {
					s.removeJournal(js.id)
				}
				s.settle(js, &out, seconds, true)
				return
			}
		}
	}

	jctx, cancel := context.WithCancel(s.runCtx)
	js.mu.Lock()
	js.cancel = cancel
	js.mu.Unlock()
	res := s.runner.RunOne(jctx, sweep.Job{
		Name:    js.id,
		Timeout: js.spec.jobTimeout(s.opt.DefaultTimeout),
		Run:     func(ctx context.Context) (any, error) { return s.runAttack(ctx, js) },
	})
	cancel()
	s.finish(js, res)
}

// finish turns a runner result into a terminal record. The cases, in
// order: user cancellation; drain/shutdown interruption (not recorded,
// so the job re-runs — resuming its journal — on the next start);
// genuine failure (recorded as a done-with-error envelope so it does
// NOT retry forever); success.
func (s *Server) finish(js *jobState, res sweep.Result) {
	js.mu.Lock()
	userCancelled := js.cancelled
	js.cancel = nil
	js.mu.Unlock()

	switch {
	case userCancelled:
		s.markCancelled(js)
		return

	case res.Err != nil && errors.Is(res.Err, context.Canceled):
		// Drain or shutdown. Keep the spec and record nothing; the
		// journal already holds every DIP this run paid for.
		js.mu.Lock()
		js.state = StateInterrupted
		js.finished = time.Now()
		done := js.done
		js.mu.Unlock()
		close(done)
		return
	}

	out := &jobOutcome{}
	if res.Err != nil {
		out.Error = res.Err.Error()
	} else if raw, err := json.Marshal(res.Value); err != nil {
		out.Error = fmt.Sprintf("unserializable result: %v", err)
	} else {
		out.Result = raw
	}
	if s.record(js.id, out, res.Seconds) {
		s.removeJournal(js.id)
	}
	if out.Error != "" {
		s.failed.Add(1)
	} else {
		if r, ok := res.Value.(*AttackResult); ok {
			s.conflicts.Add(r.Solver.Conflicts)
		}
		if k, ok := s.cacheKey(js.spec); ok {
			if env, err := json.Marshal(out); err == nil {
				_ = s.opt.Cache.PutTimed(k, env, res.Seconds)
			}
		}
	}
	s.settle(js, out, res.Seconds, false)
}

// record appends a finished job's outcome to the manifest and reports
// whether it was written. A lost record is logged and leaves the job's
// state alone: it only means the job runs again after a restart, so
// the caller keeps the job's journal for that run to resume from.
func (s *Server) record(id string, out *jobOutcome, seconds float64) bool {
	if err := s.manifest.record(id, out, seconds); err != nil {
		s.logf("serve: %s: manifest record: %v", id, err)
		return false
	}
	return true
}

// removeJournal deletes a job's DIP journal once nothing will resume
// from it: recovery answers a recorded job from its manifest line, and
// a cancelled job never runs again. A job that never reached the
// attack has none.
func (s *Server) removeJournal(id string) {
	if err := os.Remove(attack.JournalPath(s.ckpt, id)); err != nil && !errors.Is(err, os.ErrNotExist) {
		s.logf("serve: %s: remove journal: %v", id, err)
	}
}

// markCancelled makes a cancelled job terminal, removes its spec file
// and its journal, and notifies watchers.
func (s *Server) markCancelled(js *jobState) {
	js.mu.Lock()
	js.state = StateCancelled
	js.cancelled = true
	js.finished = time.Now()
	js.dropSpecText()
	done := js.done
	js.mu.Unlock()
	s.cancelled.Add(1)
	if err := os.Remove(s.specPath(js.id)); err != nil && !errors.Is(err, os.ErrNotExist) {
		s.logf("serve: cancel %s: %v", js.id, err)
	}
	s.removeJournal(js.id)
	close(done)
}

// dropSpecText keeps only the spec field view reports, the type, so a
// finished job holds no bench or key text; its spec file keeps the
// whole spec. Caller holds js.mu, or has the job to itself.
func (js *jobState) dropSpecText() {
	js.spec = &JobSpec{Type: js.spec.Type}
}

// settle records a terminal done/failed state and notifies watchers.
func (s *Server) settle(js *jobState, out *jobOutcome, seconds float64, cached bool) {
	js.mu.Lock()
	js.state = StateDone
	if out.Error != "" {
		js.state = StateFailed
	}
	js.outcome = out
	js.seconds = seconds
	js.cached = cached
	js.finished = time.Now()
	js.dropSpecText()
	done := js.done
	js.mu.Unlock()
	if out.Error == "" {
		s.completed.Add(1)
	}
	close(done)
}

// Drain stops the daemon gracefully: refuse new submissions, stop
// dispatching queued jobs (their specs keep them for the next start),
// give in-flight jobs the grace period to finish on their own, then
// cancel the rest — every cancelled attack's journal already holds its
// paid-for DIPs — and finally run cache GC so the next start finds a
// trimmed, consistent cache.
func (s *Server) Drain(grace time.Duration) {
	if s.draining.Swap(true) {
		return
	}
	s.q.close()
	workers := make(chan struct{})
	go func() {
		defer close(workers)
		s.wg.Wait()
	}()
	if grace > 0 {
		t := time.NewTimer(grace)
		select {
		case <-workers:
			t.Stop()
		case <-t.C:
			s.logf("serve: drain grace expired; interrupting %d running jobs", s.running.Load())
		}
	}
	s.stopRun()
	<-workers
	s.unhook()
	if s.opt.Cache != nil {
		if n, err := s.opt.Cache.GC(); err != nil {
			s.logf("serve: cache gc: %v", err)
		} else if n > 0 {
			s.logf("serve: cache gc evicted %d entries", n)
		}
		st := s.opt.Cache.Stats()
		s.logf("serve: cache: %d hits, %d misses, %d puts", st.Hits, st.Misses, st.Puts)
	}
	s.logf("serve: drained: %d jobs still queued for next start", s.q.size())
}

// publish updates the job's latest progress and fans an SSE frame out
// to subscribers. Sends never block: a slow consumer misses
// intermediate frames but always gets the terminal one (the SSE
// handler re-reads the final state on done).
func (s *Server) publish(js *jobState, event string, p *ProgressEvent) {
	js.mu.Lock()
	if p != nil {
		js.progress = p
	}
	if len(js.subs) == 0 {
		js.mu.Unlock()
		return
	}
	var payload any = p
	if p == nil {
		payload = struct {
			State string `json:"state"`
		}{js.state}
	}
	frame, err := sseFrame(event, payload)
	if err != nil {
		js.mu.Unlock()
		return
	}
	for _, ch := range js.subs {
		select {
		case ch <- frame:
		default:
		}
	}
	js.mu.Unlock()
}

// subscribe registers an SSE consumer; the returned cancel must be
// called when the consumer leaves.
func (js *jobState) subscribe() (<-chan []byte, func()) {
	js.mu.Lock()
	defer js.mu.Unlock()
	id := js.nextSub
	js.nextSub++
	ch := make(chan []byte, 16)
	js.subs[id] = ch
	return ch, func() {
		js.mu.Lock()
		defer js.mu.Unlock()
		delete(js.subs, id)
	}
}
