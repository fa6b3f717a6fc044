package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/attack"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/netlint"
	"repro/internal/netlist"
	"repro/internal/sat"
)

// Result payloads. These are what GET /jobs/{id} returns under
// "result" and what the checkpoint manifest and cache persist, so the
// fields are stable JSON.

// AttackResult is one attack target's outcome.
type AttackResult struct {
	// Status is the attack verdict: key-found, timeout (the paper's
	// ∞), or failed.
	Status string `json:"status"`
	// Key is the recovered key as a little-endian bit string (set when
	// Status is key-found).
	Key     string `json:"key,omitempty"`
	KeyBits int    `json:"key_bits"`
	// Iterations counts DIPs; Replayed of them came from the journal,
	// so this run queried the oracle for Iterations-Replayed of them.
	Iterations int `json:"iterations"`
	Replayed   int `json:"replayed,omitempty"`
	// Queries is this run's live oracle-query count (journal replay
	// and verification excluded).
	Queries   int       `json:"queries"`
	ElapsedMS int64     `json:"elapsed_ms"`
	Solver    sat.Stats `json:"solver"`
	// ErrorRate is the verified residual error of the recovered key
	// (only when the spec asked to Verify).
	ErrorRate float64 `json:"error_rate,omitempty"`
	Verified  bool    `json:"verified,omitempty"`
}

// LockResult is a locked netlist plus its key, both in the text
// formats cmd/locker emits.
type LockResult struct {
	Scheme  string `json:"scheme"`
	Bench   string `json:"bench"`
	KeyBits int    `json:"key_bits"`
	// Key holds one name=bit line per key input.
	Key          []string `json:"key"`
	LintWarnings int      `json:"lint_warnings"`
}

// LintResult reports a hygiene pass.
type LintResult struct {
	Errors      int                  `json:"errors"`
	Warnings    int                  `json:"warnings"`
	Diagnostics []netlint.Diagnostic `json:"diagnostics,omitempty"`
}

// SweepResult aggregates a sweep job's targets.
type SweepResult struct {
	Targets    []*AttackResult `json:"targets"`
	Iterations int             `json:"iterations"`
	Queries    int             `json:"queries"`
}

// attackTarget is a parsed AttackSpec ready to attack.
type attackTarget struct {
	locked *netlist.Netlist
	keyPos []int
	key    []bool
	oracle *attack.SimOracle
}

// parseAttackTarget turns the inline bench + key text into the locked
// netlist, key positions, correct key, and activated oracle — the
// in-memory equivalent of cmd/satattack's file loading.
func parseAttackTarget(name string, spec *AttackSpec) (*attackTarget, error) {
	locked, err := netlist.ParseBench(name, strings.NewReader(spec.Bench))
	if err != nil {
		return nil, err
	}
	prefix := spec.KeyPrefix
	if prefix == "" {
		prefix = "keyinput"
	}
	keyPos := locked.GateIDsByPrefix(prefix)
	if len(keyPos) == 0 {
		return nil, fmt.Errorf("no key inputs with prefix %q", prefix)
	}
	key, err := parseKeyText(spec.Key, locked, keyPos)
	if err != nil {
		return nil, err
	}
	bound, err := locked.BindInputs(keyPos, key)
	if err != nil {
		return nil, err
	}
	oracle, err := attack.NewSimOracle(bound)
	if err != nil {
		return nil, err
	}
	return &attackTarget{locked: locked, keyPos: keyPos, key: key, oracle: oracle}, nil
}

// parseKeyText reads the cmd/locker key format (name=bit per line,
// '#' comments) into the key vector ordered by keyPos.
func parseKeyText(text string, locked *netlist.Netlist, keyPos []int) ([]bool, error) {
	byName := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		eq := strings.Split(line, "=")
		if len(eq) != 2 {
			return nil, fmt.Errorf("bad key line %q", line)
		}
		byName[strings.TrimSpace(eq[0])] = strings.TrimSpace(eq[1]) == "1"
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	key := make([]bool, len(keyPos))
	for i, pos := range keyPos {
		name := locked.Gates[locked.Inputs[pos]].Name
		v, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("key missing %q", name)
		}
		key[i] = v
	}
	return key, nil
}

// keyBitString renders a key little-endian as '0'/'1'.
func keyBitString(key []bool) string {
	b := make([]byte, len(key))
	for i, v := range key {
		b[i] = '0'
		if v {
			b[i] = '1'
		}
	}
	return string(b)
}

// openResumableJournal opens (and, when present, loads) the DIP
// journal at path, degrading a corrupt file to a fresh start — the
// daemon mirrors cmd/satattack's resume semantics but always resumes
// when a journal exists, because a journal in the state directory can
// only mean a previous run of this same job.
func (s *Server) openResumableJournal(path string) (*attack.Journal, *attack.JournalData, error) {
	j, data, err := attack.OpenJournal(path)
	if err == nil {
		return j, data, nil
	}
	if !errors.Is(err, attack.ErrJournalCorrupt) {
		return nil, nil, err
	}
	s.logf("serve: %s: corrupt journal, starting fresh: %v", path, err)
	if err := os.Remove(path); err != nil {
		return nil, nil, err
	}
	j, _, err = attack.OpenJournal(path)
	return j, nil, err
}

// runAttackTarget runs one attack with journaled resume. journalKey
// names the target's private journal inside the checkpoint directory;
// publish (may be nil) receives per-DIP progress.
func (s *Server) runAttackTarget(ctx context.Context, journalKey string, target int,
	spec *AttackSpec, publish func(ProgressEvent)) (res *AttackResult, err error) {
	at, err := parseAttackTarget(journalKey, spec)
	if err != nil {
		return nil, err
	}
	out := &AttackResult{KeyBits: len(at.keyPos)}
	start := time.Now()

	var status attack.Status
	var recovered []bool
	if spec.AppSAT {
		opt := attack.DefaultAppSAT()
		opt.Timeout = time.Duration(spec.TimeoutMS) * time.Millisecond
		opt.Context = ctx
		r, err := attack.AppSAT(at.locked, at.keyPos, at.oracle, opt)
		if err != nil {
			return nil, err
		}
		status, recovered, out.Iterations = r.Status, r.Key, r.DIPs
	} else {
		opts := attack.SATOptions{
			Timeout:   time.Duration(spec.TimeoutMS) * time.Millisecond,
			Context:   ctx,
			BVA:       spec.BVA,
			Portfolio: spec.Portfolio,
		}
		if publish != nil {
			opts.Progress = func(p attack.Progress) {
				publish(ProgressEvent{
					Target:    target,
					Iteration: p.Iteration,
					Queries:   at.oracle.Queries(),
					ElapsedMS: p.Elapsed.Milliseconds(),
					Solver:    p.Solver,
				})
			}
		}
		j, data, err := s.openResumableJournal(s.ckpt.JobFile(journalKey))
		if err != nil {
			return nil, err
		}
		// The journal fsyncs per record; a failed close is the last
		// chance to observe lost appended DIPs, so join it into err.
		defer func() { err = errors.Join(err, j.Close()) }()
		opts.Journal, opts.Resume = j, data
		r, err := attack.SATAttack(at.locked, at.keyPos, at.oracle, opts)
		if errors.Is(err, attack.ErrReplayDiverged) {
			// The journal belongs to a different circuit or attack
			// configuration (e.g. the spec changed); degrade to fresh.
			s.logf("serve: %s: journal does not match, starting fresh: %v", journalKey, err)
			if rerr := os.Remove(s.ckpt.JobFile(journalKey)); rerr != nil && !errors.Is(rerr, os.ErrNotExist) {
				return nil, rerr
			}
			var j2 *attack.Journal
			j2, _, err = attack.OpenJournal(s.ckpt.JobFile(journalKey))
			if err != nil {
				return nil, err
			}
			defer func() { err = errors.Join(err, j2.Close()) }()
			opts.Journal, opts.Resume = j2, nil
			r, err = attack.SATAttack(at.locked, at.keyPos, at.oracle, opts)
		}
		if err != nil {
			return nil, err
		}
		status, recovered = r.Status, r.Key
		out.Iterations, out.Replayed, out.Solver = r.Iterations, r.Replayed, r.Solver
	}

	out.Status = status.String()
	out.Queries = at.oracle.Queries()
	out.ElapsedMS = time.Since(start).Milliseconds()
	if status == attack.KeyFound {
		out.Key = keyBitString(recovered)
		if spec.Verify {
			e, err := attack.VerifyKey(at.locked, at.keyPos, recovered, at.oracle, 16, 1)
			if err != nil {
				return nil, err
			}
			out.ErrorRate, out.Verified = e, true
		}
	}
	return out, nil
}

// runLock locks the spec's bench, gates the result on the netlint
// hygiene analyzers exactly as cmd/locker's emit path does, and
// returns the locked bench plus key lines.
func runLock(spec *LockSpec) (*LockResult, error) {
	orig, err := netlist.ParseBench("submitted", strings.NewReader(spec.Bench))
	if err != nil {
		return nil, err
	}
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	var (
		locked   *netlist.Netlist
		keyPos   []int
		key      []bool
		lintOpts netlint.Options
	)
	switch spec.Scheme {
	case "ril":
		size, err := core.ParseSize(spec.Size)
		if err != nil {
			return nil, err
		}
		res, err := core.Lock(orig, core.Options{
			Blocks: spec.Blocks, Size: size, Seed: seed, ScanEnable: spec.Scan,
		})
		if err != nil {
			return nil, err
		}
		locked, keyPos, key = res.Locked, res.KeyInputPos, res.Key
		lintOpts = netlint.Options{
			Key: keyByName(locked, keyPos, key),
			Scan: &netlint.ScanSpec{Chains: []netlint.ScanChainSpec{{
				Name:     "keychain",
				Width:    core.NewKeyChain(res).Len(),
				Cells:    res.KeyNames,
				KeyChain: true,
			}}},
		}
	default:
		var l *baselines.Locked
		switch spec.Scheme {
		case "lut":
			l, err = baselines.LUTLock(orig, spec.Blocks, seed)
		case "xor":
			l, err = baselines.XORLock(orig, spec.KeyBits, seed)
		case "sarlock":
			l, err = baselines.SARLock(orig, spec.KeyBits, seed)
		case "antisat":
			l, err = baselines.AntiSAT(orig, spec.KeyBits, seed)
		case "sfll":
			l, err = baselines.SFLLHD(orig, spec.KeyBits, spec.HD, seed)
		case "caslock":
			l, err = baselines.CASLock(orig, spec.KeyBits, seed)
		case "meso":
			l, err = baselines.MESOLock(orig, spec.Blocks, seed)
		default:
			return nil, fmt.Errorf("unknown scheme %q", spec.Scheme)
		}
		if err != nil {
			return nil, err
		}
		locked, keyPos, key = l.Netlist, l.KeyPos, l.Key
		lintOpts = netlint.Options{Key: keyByName(locked, keyPos, key)}
	}

	lint, err := netlint.Run(locked, lintOpts, netlint.Hygiene()...)
	if err != nil {
		return nil, err
	}
	if lint.HasErrors() {
		msgs := make([]string, 0, len(lint.Errors()))
		for _, d := range lint.Errors() {
			msgs = append(msgs, d.String())
		}
		return nil, fmt.Errorf("netlint gate: %s", strings.Join(msgs, "; "))
	}

	var bench strings.Builder
	if err := locked.WriteBench(&bench); err != nil {
		return nil, err
	}
	out := &LockResult{
		Scheme:       spec.Scheme,
		Bench:        bench.String(),
		KeyBits:      len(key),
		LintWarnings: lint.Count(netlint.Warn),
	}
	for i, pos := range keyPos {
		bit := 0
		if key[i] {
			bit = 1
		}
		out.Key = append(out.Key, fmt.Sprintf("%s=%d", locked.Gates[locked.Inputs[pos]].Name, bit))
	}
	return out, nil
}

// keyByName maps key input names to their correct values for the
// const-lut analyzer.
func keyByName(nl *netlist.Netlist, keyPos []int, key []bool) map[string]bool {
	m := make(map[string]bool, len(key))
	for i, pos := range keyPos {
		m[nl.Gates[nl.Inputs[pos]].Name] = key[i]
	}
	return m
}

// runLint runs the hygiene analyzers; findings are data, not job
// failure — a bench with errors still yields a successful lint job
// whose result reports them.
func runLint(spec *LintSpec) (*LintResult, error) {
	nl, err := netlist.ParseBench("submitted", strings.NewReader(spec.Bench))
	if err != nil {
		return nil, err
	}
	res, err := netlint.Run(nl, netlint.Options{KeyPrefix: spec.KeyPrefix}, netlint.Hygiene()...)
	if err != nil {
		return nil, err
	}
	return &LintResult{
		Errors:      res.Count(netlint.Error),
		Warnings:    res.Count(netlint.Warn),
		Diagnostics: res.Diagnostics,
	}, nil
}

// runSweep runs a sweep job's targets sequentially under the shared
// ctx. Target i journals under "<id>#i", so a restart replays finished
// targets' journals and resumes the interrupted one.
func (s *Server) runSweep(ctx context.Context, id string, spec *SweepSpec, publish func(ProgressEvent)) (*SweepResult, error) {
	out := &SweepResult{}
	for i := range spec.Targets {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("sweep interrupted at target %d: %w", i, context.Cause(ctx))
		}
		r, err := s.runAttackTarget(ctx, fmt.Sprintf("%s#%d", id, i), i, &spec.Targets[i], publish)
		if err != nil {
			return nil, fmt.Errorf("target %d: %w", i, err)
		}
		out.Targets = append(out.Targets, r)
		out.Iterations += r.Iterations
		out.Queries += r.Queries
	}
	return out, nil
}
