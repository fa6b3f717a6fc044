package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/attack"
	"repro/internal/baselines"
	"repro/internal/cache"
	"repro/internal/netlist"
	"repro/internal/serve"
	"repro/internal/sweep"
)

// rild-jobs: small attack jobs against an in-process daemon (2 workers,
// a result cache, the state directory on disk) over loopback HTTP. Two
// clients run in lockstep: each round the first submits a target never
// seen before, which runs live and is stored, and the second resubmits
// a random target that already ran, which the cache answers. A job's
// latency runs from POST /jobs to its terminal SSE frame.
var rildWorkload = workload{
	name:    "rild-jobs",
	streams: 2,
	sample:  400,
	setup:   setupRild,
}

const (
	rildTargets = 2500 // more than a 10 s run submits live
	rildKeyBits = 8
)

// rildTarget is one XOR-locked random netlist submitted as a job. It
// keeps only text: thousands of parsed netlists would make every GC
// between rounds scan them.
type rildTarget struct {
	index int
	bench string
	key   string
	// live is the result the target's live run returned, once known.
	live json.RawMessage
}

type rild struct {
	seed    int64
	targets []*rildTarget
	c       *cache.Cache
	srv     *serve.Server
	http    *httptest.Server
	client  *http.Client

	mu     sync.Mutex
	ran    []int // targets whose live run passed its check
	picks  *rand.Rand
	ids    map[string]bool
	issued int // jobs submitted
}

func setupRild(e env) (instance, error) {
	n := rildTargets
	if e.quick {
		n = 6
	}
	w := &rild{seed: e.seed, picks: rand.New(rand.NewSource(sweep.DeriveSeed(e.seed, -1))), ids: map[string]bool{}}
	seen := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		t, err := makeTarget(e.seed, i)
		if err != nil {
			return nil, err
		}
		if seen[t.bench] {
			return nil, fmt.Errorf("target %d repeats an earlier netlist", i)
		}
		seen[t.bench] = true
		w.targets = append(w.targets, t)
	}
	var err error
	if w.c, err = cache.Open(filepath.Join(e.dir, "cache"), cache.Options{}); err != nil {
		return nil, err
	}
	if w.srv, err = serve.New(serve.Options{StateDir: filepath.Join(e.dir, "state"), Workers: 2, Cache: w.c, DefaultTimeout: time.Minute}); err != nil {
		return nil, err
	}
	w.srv.Start()
	w.http = httptest.NewServer(w.srv.Handler())
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	// Run the first target of each client live before the clock starts,
	// so the resubmitting client has targets to draw from.
	for i := 0; i < 2; i++ {
		check, err := w.live(opCtx{}, i)
		if err == nil {
			err = check()
		}
		if err != nil {
			return nil, errors.Join(fmt.Errorf("warm-up job: %w", err), w.close())
		}
	}
	return w, nil
}

// targetProfile shapes the daemon's targets; every target shares the
// name, so distinct specs come from distinct circuits alone.
var targetProfile = netlist.RandomProfile{Name: "target", Inputs: 10, Outputs: 4, Gates: 50, Locality: 0.3}

// targetCircuit is target i's unlocked netlist.
func targetCircuit(seed int64, i int) (*netlist.Netlist, error) {
	return netlist.Random(targetProfile, sweep.DeriveSeed(seed, 2*i))
}

// targetLock locks target i with 8 XOR key gates.
func targetLock(seed int64, i int) (*baselines.Locked, error) {
	orig, err := targetCircuit(seed, i)
	if err != nil {
		return nil, err
	}
	return baselines.XORLock(orig, rildKeyBits, sweep.DeriveSeed(seed, 2*i+1))
}

// makeTarget builds target i's job text: a ~50-gate random netlist
// locked with 8 XOR key gates, both from seeds derived from the run's.
func makeTarget(seed int64, i int) (*rildTarget, error) {
	l, err := targetLock(seed, i)
	if err != nil {
		return nil, err
	}
	var bench, key strings.Builder
	if err := l.Netlist.WriteBench(&bench); err != nil {
		return nil, err
	}
	for j, pos := range l.KeyPos {
		bit := 0
		if l.Key[j] {
			bit = 1
		}
		fmt.Fprintf(&key, "%s=%d\n", l.Netlist.Gates[l.Netlist.Inputs[pos]].Name, bit)
	}
	return &rildTarget{index: i, bench: bench.String(), key: key.String()}, nil
}

func (w *rild) do(c opCtx) (func() error, error) {
	round := c.op / 2
	if c.op%2 == 0 {
		return w.live(c, round+2)
	}
	return w.resubmit(c)
}

// live submits a target for the first time.
func (w *rild) live(c opCtx, i int) (func() error, error) {
	if i >= len(w.targets) {
		return nil, fmt.Errorf("ran out of the %d prepared targets", len(w.targets))
	}
	t := w.targets[i]
	v, err := w.job(c, t)
	if err != nil {
		return nil, err
	}
	return func() error {
		if v.Cached {
			return fmt.Errorf("first submission of target %d was answered from the cache", i)
		}
		if err := w.checkView(c, t, v); err != nil {
			return err
		}
		w.mu.Lock()
		t.live = v.Result
		w.ran = append(w.ran, i)
		w.mu.Unlock()
		return nil
	}, nil
}

// resubmit submits a random target that already ran live.
func (w *rild) resubmit(c opCtx) (func() error, error) {
	w.mu.Lock()
	if len(w.ran) == 0 {
		w.mu.Unlock()
		return nil, fmt.Errorf("no target has run live yet")
	}
	i := w.ran[w.picks.Intn(len(w.ran))]
	w.mu.Unlock()
	t := w.targets[i]
	v, err := w.job(c, t)
	if err != nil {
		return nil, err
	}
	return func() error {
		if !v.Cached {
			return fmt.Errorf("resubmission of target %d was not answered from the cache", i)
		}
		if err := w.checkView(c, t, v); err != nil {
			return err
		}
		if !bytes.Equal(v.Result, t.live) {
			return fmt.Errorf("cached result of target %d differs from its live result", i)
		}
		return nil
	}, nil
}

// job submits one attack job and follows its SSE stream to the
// terminal frame.
func (w *rild) job(c opCtx, t *rildTarget) (*serve.JobView, error) {
	spec, err := json.Marshal(serve.JobSpec{
		Type:      serve.TypeAttack,
		TimeoutMS: 30_000,
		Attack:    &serve.AttackSpec{Bench: t.bench, Key: t.key},
	})
	if err != nil {
		return nil, err
	}
	_, end := c.span("serve.submit")
	id, err := w.submit(spec)
	end()
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	w.issued++
	dup := w.ids[id]
	w.ids[id] = true
	w.mu.Unlock()
	if dup {
		return nil, fmt.Errorf("job id %s issued twice", id)
	}
	_, end = c.span("serve.events")
	v, err := w.awaitDone(id)
	received := time.Now()
	end()
	if err != nil {
		return nil, err
	}
	submitted, _ := time.Parse(time.RFC3339Nano, v.Submitted)
	started, _ := time.Parse(time.RFC3339Nano, v.Started)
	finished, _ := time.Parse(time.RFC3339Nano, v.Finished)
	c.interval("serve.queue", submitted, started)
	c.interval("serve.run", started, finished)
	c.interval("serve.notify", finished, received)
	if v.Cached {
		c.observe("serve.cache_hits", 1)
	}
	return v, nil
}

func (w *rild) submit(spec []byte) (string, error) {
	resp, err := w.client.Post(w.http.URL+"/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("POST /jobs: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	var out struct{ ID string }
	if err := json.Unmarshal(body, &out); err != nil || out.ID == "" {
		return "", fmt.Errorf("POST /jobs: no job id in %q", body)
	}
	return out.ID, nil
}

// awaitDone reads GET /jobs/{id}/events until the done frame and
// returns the job view it carries.
func (w *rild) awaitDone(id string) (*serve.JobView, error) {
	resp, err := w.client.Get(w.http.URL + "/jobs/" + id + "/events")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET events of %s: %s", id, resp.Status)
	}
	r := bufio.NewReader(resp.Body)
	event := ""
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return nil, fmt.Errorf("job %s: event stream ended before its done frame: %w", id, err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "done":
			var v serve.JobView
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &v); err != nil {
				return nil, fmt.Errorf("job %s: done frame: %w", id, err)
			}
			return &v, nil
		}
	}
}

// checkView verifies a finished job: it succeeded, and the key it
// recovered is correct against the unlocked circuit.
func (w *rild) checkView(c opCtx, t *rildTarget, v *serve.JobView) error {
	if v.State != serve.StateDone {
		return fmt.Errorf("job %s ended %s: %s", v.ID, v.State, v.Error)
	}
	var r serve.AttackResult
	if err := json.Unmarshal(v.Result, &r); err != nil {
		return fmt.Errorf("job %s result: %w", v.ID, err)
	}
	if !v.Cached {
		recordSolver(c, r.Solver, 0)
		c.observe("attack.dips", float64(r.Iterations))
		c.observe("attack.oracle_queries", float64(r.Queries))
	}
	locked, err := netlist.ParseBench("target", strings.NewReader(t.bench))
	if err != nil {
		return err
	}
	keyPos := locked.GateIDsByPrefix("keyinput")
	key := make([]bool, len(r.Key))
	for i, b := range r.Key {
		key[i] = b == '1'
	}
	status := attack.Failed
	if r.Status == attack.KeyFound.String() {
		status = attack.KeyFound
	}
	orig, err := targetCircuit(w.seed, t.index)
	if err != nil {
		return err
	}
	functional, err := attack.NewSimOracle(orig)
	if err != nil {
		return err
	}
	return verifyKey(locked, keyPos, status, key, functional, w.seed, 0)
}

// finish checks the daemon's own record: every job submitted is listed
// once and finished.
func (w *rild) finish() error {
	resp, err := w.client.Get(w.http.URL + "/jobs")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var list struct{ Jobs []serve.JobView }
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return fmt.Errorf("GET /jobs: %w", err)
	}
	seen := map[string]bool{}
	lost := 0
	for _, v := range list.Jobs {
		if seen[v.ID] {
			return fmt.Errorf("daemon lists job %s twice", v.ID)
		}
		seen[v.ID] = true
		if v.State != serve.StateDone {
			lost++
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(list.Jobs) != w.issued || lost > 0 {
		return fmt.Errorf("daemon lists %d jobs (%d unfinished), clients submitted %d", len(list.Jobs), lost, w.issued)
	}
	return nil
}

func (w *rild) probe() probeInputs {
	in := probeInputs{payload: w.targets[0].live}
	for i := 0; i < 4; i++ {
		if l, err := targetLock(w.seed, i); err == nil {
			in.locked = append(in.locked, lockedCircuit{l.Netlist, l.KeyPos, l.Key})
		}
	}
	seed := w.seed
	in.synth = []func() (*netlist.Netlist, error){func() (*netlist.Netlist, error) { return targetCircuit(seed, 0) }}
	return in
}

func (w *rild) cache() *cache.Cache { return w.c }

func (w *rild) close() error {
	w.http.Close()
	w.srv.Drain(time.Second)
	w.client.CloseIdleConnections()
	return nil
}
