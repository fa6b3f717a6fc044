// Package sat implements an incremental CDCL (conflict-driven clause
// learning) SAT solver in the MiniSat lineage: two-watched-literal
// propagation, VSIDS decision heuristic with phase saving, first-UIP
// conflict analysis with non-chronological backtracking, Luby restarts
// and activity/LBD-based learnt-clause database reduction.
//
// The paper's SAT-hardness argument is about exactly this algorithm
// family (it cites DPLL/CDCL and the CaDiCaL solver); the RIL-Block
// construction is designed to force deep backtracking in this search.
package sat

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/cnf"
)

// Status is the outcome of a Solve call.
type Status int

// Solve outcomes.
const (
	Unknown Status = iota // budget or deadline exhausted
	Sat
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	}
	return "UNKNOWN"
}

// Stats accumulates solver counters across Solve calls.
type Stats struct {
	Decisions    int64 `json:"decisions"`
	Propagations int64 `json:"propagations"`
	Conflicts    int64 `json:"conflicts"`
	Restarts     int64 `json:"restarts"`
	Learnt       int64 `json:"learnt"`
	Removed      int64 `json:"removed"`
	MaxDepth     int   `json:"max_depth"` // deepest decision level reached
	// Portfolio clause sharing: learnt clauses published to / adopted
	// from the exchange. Zero for a sequential solver, so snapshots
	// written by older versions compare equal.
	Exported int64 `json:"exported,omitempty"`
	Imported int64 `json:"imported,omitempty"`
}

// Add accumulates other into st field-wise; MaxDepth takes the max
// (it is a high-water mark, not a counter). This is the portfolio's
// aggregation rule: the parent's Stats are the sum of its workers'.
func (st *Stats) Add(other Stats) {
	st.Decisions += other.Decisions
	st.Propagations += other.Propagations
	st.Conflicts += other.Conflicts
	st.Restarts += other.Restarts
	st.Learnt += other.Learnt
	st.Removed += other.Removed
	st.Exported += other.Exported
	st.Imported += other.Imported
	if other.MaxDepth > st.MaxDepth {
		st.MaxDepth = other.MaxDepth
	}
}

const (
	lUndef int8 = 0
	lTrue  int8 = 1
	lFalse int8 = -1
)

// clauseHdr is a clause's fixed-size header. Its literals are
// arena[start : start+size]; the header's index in Solver.hdrs is the
// clause reference (cref), stable for the solver's lifetime.
type clauseHdr struct {
	start   uint32
	size    uint32 // 0 once deleted
	act     float32
	lbd     int32
	learnt  bool
	deleted bool
}

type watcher struct {
	cref    int32   // clause index
	blocker cnf.Lit // a literal whose truth satisfies the clause
}

// firstWatchCap is the watch-list capacity a literal takes from the
// shared slab on its first watch.
const firstWatchCap = 4

// Solver is an incremental CDCL solver. The zero value is not usable;
// call New.
type Solver struct {
	hdrs      []clauseHdr // indexed by cref; deleted clauses stay as tombstones
	arena     []cnf.Lit   // every clause's literals, back to back
	wasted    int         // arena literals of deleted clauses
	watches   [][]watcher // indexed by literal
	watchSlab []watcher   // unused first-watch capacity

	vals     []int8  // per literal: lTrue, lFalse or lUndef
	level    []int32 // per variable
	reason   []int32 // per variable: clause index or -1
	polarity []bool  // phase saving: last assigned value
	activity []float64
	varInc   float64

	heap    *varHeap
	trail   []cnf.Lit
	trailQ  int // propagation queue head
	limits  []int
	assumps []cnf.Lit

	// Scratch reused across calls.
	seen      []bool    // per variable, conflict analysis
	mark      []int8    // per variable, clause normalisation
	addBuf    []cnf.Lit // AddClause/importClause normalised clause
	learntBuf []cnf.Lit // analyze's learnt clause
	clearBuf  []cnf.Lit // analyze's literals whose seen flag to clear
	lbdStamp  []uint64  // per decision level, computeLBD
	lbdEpoch  uint64
	cands     []reduceCand // reduceDB's candidates

	claInc    float64
	learntCnt int
	maxLearnt float64

	okay  bool // false once toplevel conflict found
	model []bool

	rng        *rand.Rand
	cfg        Config
	stats      Stats
	deadline   time.Time
	confBudget int64           // remaining conflicts allowed; <0 means unlimited
	ctx        context.Context // optional cancellation; nil means none

	// Portfolio clause sharing (nil outside a portfolio).
	exch       *ClauseExchange
	exchID     int
	exchCursor uint64
	exchBuf    []SharedClause // reusable collect scratch
}

// New returns an empty solver with the default (historical) search
// configuration.
func New() *Solver { return NewWithConfig(DefaultConfig()) }

// NewWithConfig returns an empty solver searching under cfg. The
// configuration affects heuristic order only, never verdicts; a given
// (config, clause sequence) pair is fully deterministic.
func NewWithConfig(cfg Config) *Solver {
	cfg = cfg.sanitize()
	s := &Solver{
		varInc:     1,
		claInc:     1,
		okay:       true,
		cfg:        cfg,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		confBudget: -1,
	}
	s.heap = newVarHeap(&s.activity)
	return s
}

// NewVar allocates a fresh variable.
func (s *Solver) NewVar() cnf.Var {
	v := cnf.Var(len(s.level))
	s.vals = append(s.vals, lUndef, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, -1)
	s.polarity = append(s.polarity, !s.cfg.InvertPhase) // initial phase
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, false)
	s.mark = append(s.mark, 0)
	s.watches = append(s.watches, nil, nil)
	s.heap.insert(int(v))
	return v
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return len(s.level) }

func (s *Solver) ensureVar(v cnf.Var) {
	for cnf.Var(len(s.level)) <= v {
		s.NewVar()
	}
}

func (s *Solver) litValue(l cnf.Lit) int8 { return s.vals[l] }

// clauseLits returns the literals of clause cref, aliasing the arena.
func (s *Solver) clauseLits(cref int32) []cnf.Lit {
	h := &s.hdrs[cref]
	return s.arena[h.start : h.start+h.size]
}

// AddFormula adds every clause of a CNF formula.
func (s *Solver) AddFormula(f *cnf.Formula) bool {
	for cnf.Var(s.NumVars()) < cnf.Var(f.NumVars) {
		s.NewVar()
	}
	for _, c := range f.Clauses {
		if !s.AddClause(c...) {
			return false
		}
	}
	return true
}

// AddClause adds a problem clause. It returns false if the solver is
// now in an unsatisfiable state at the top level. Adding clauses is
// legal between Solve calls (incremental solving); the solver
// backtracks to level 0 first.
func (s *Solver) AddClause(lits ...cnf.Lit) bool {
	if !s.okay {
		return false
	}
	s.cancelUntil(0)
	for _, l := range lits {
		s.ensureVar(l.Var())
	}
	// Normalize: drop duplicates and false lits; detect tautology/satisfied.
	// mark holds ±1 for each literal kept so far and is cleared on exit.
	norm := s.addBuf[:0]
	satisfied := false
	for _, l := range lits {
		m := int8(1)
		if l.Neg() {
			m = -1
		}
		val, v := s.litValue(l), l.Var()
		if val == lTrue || s.mark[v] == -m {
			satisfied = true // already true at level 0, or a tautology
			break
		}
		if val == lFalse || s.mark[v] == m {
			continue // drop false and duplicate lits
		}
		s.mark[v] = m
		norm = append(norm, l)
	}
	for _, l := range norm {
		s.mark[l.Var()] = 0
	}
	s.addBuf = norm
	if satisfied {
		return true
	}
	switch len(norm) {
	case 0:
		s.okay = false
		return false
	case 1:
		s.uncheckedEnqueue(norm[0], -1)
		if s.propagate() >= 0 {
			s.okay = false
			return false
		}
		return true
	}
	s.attachClause(norm, false)
	return true
}

// attachClause copies lits into the arena as a new clause and watches
// its first two literals.
func (s *Solver) attachClause(lits []cnf.Lit, learnt bool) int32 {
	cref := int32(len(s.hdrs))
	s.hdrs = append(s.hdrs, clauseHdr{start: uint32(len(s.arena)), size: uint32(len(lits)), learnt: learnt})
	s.arena = append(s.arena, lits...)
	s.watch(lits[0].Not(), watcher{cref, lits[1]})
	s.watch(lits[1].Not(), watcher{cref, lits[0]})
	if learnt {
		s.learntCnt++
	}
	return cref
}

// watch appends w to l's watch list. A literal's first watch takes its
// capacity from a slab shared by all literals, sized to the variable
// count, instead of a growslice per literal.
func (s *Solver) watch(l cnf.Lit, w watcher) {
	ws := s.watches[l]
	if cap(ws) == 0 {
		if len(s.watchSlab) < firstWatchCap {
			s.watchSlab = make([]watcher, firstWatchCap*len(s.watches))
		}
		ws = s.watchSlab[:0:firstWatchCap]
		s.watchSlab = s.watchSlab[firstWatchCap:]
	}
	s.watches[l] = append(ws, w)
}

func (s *Solver) uncheckedEnqueue(l cnf.Lit, from int32) {
	v := l.Var()
	s.vals[l] = lTrue
	s.vals[l.Not()] = lFalse
	s.polarity[v] = !l.Neg()
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

func (s *Solver) decisionLevel() int { return len(s.limits) }

// propagate performs unit propagation. It returns the index of a
// conflicting clause, or -1 if no conflict. It never moves the first
// literal of a reason clause: that literal is true, and only a false
// watched literal is swapped out of positions 0 and 1.
func (s *Solver) propagate() int32 {
	vals := s.vals
	for s.trailQ < len(s.trail) {
		p := s.trail[s.trailQ]
		s.trailQ++
		s.stats.Propagations++
		falseLit := p.Not()
		ws := s.watches[p]
		j := 0 // watchers kept so far, compacted into ws[:j]
		for wi := 0; wi < len(ws); wi++ {
			w := ws[wi]
			if vals[w.blocker] == lTrue {
				ws[j] = w
				j++
				continue
			}
			h := &s.hdrs[w.cref]
			if h.deleted {
				continue
			}
			lits := s.arena[h.start : h.start+h.size]
			// Ensure lits[1] is the false watched literal p.Not().
			if lits[0] == falseLit {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			if first != w.blocker && vals[first] == lTrue {
				ws[j] = watcher{w.cref, first}
				j++
				continue
			}
			// Look for a new watch.
			found := false
			for k := 2; k < len(lits); k++ {
				if vals[lits[k]] != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					s.watch(lits[1].Not(), watcher{w.cref, first})
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Clause is unit or conflicting.
			ws[j] = watcher{w.cref, first}
			j++
			if vals[first] == lFalse {
				// Conflict: keep the remaining watchers and bail.
				j += copy(ws[j:], ws[wi+1:])
				s.watches[p] = ws[:j]
				s.trailQ = len(s.trail)
				return w.cref
			}
			s.uncheckedEnqueue(first, w.cref)
		}
		s.watches[p] = ws[:j]
	}
	return -1
}

func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	bound := s.limits[lvl]
	for i := len(s.trail) - 1; i >= bound; i-- {
		l := s.trail[i]
		v := l.Var()
		s.vals[l] = lUndef
		s.vals[l.Not()] = lUndef
		s.reason[v] = -1
		if !s.heap.inHeap(int(v)) {
			s.heap.insert(int(v))
		}
	}
	s.trail = s.trail[:bound]
	s.trailQ = bound
	s.limits = s.limits[:lvl]
}

func (s *Solver) bumpVar(v cnf.Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	if s.heap.inHeap(int(v)) {
		s.heap.decrease(int(v))
	}
}

func (s *Solver) bumpClause(cref int32) {
	c := &s.hdrs[cref]
	c.act += float32(s.claInc)
	if c.act > 1e30 {
		for i := range s.hdrs {
			s.hdrs[i].act *= 1e-30
		}
		s.claInc *= 1e-30
	}
}

// analyze performs first-UIP conflict analysis, returning the learnt
// clause (with the asserting literal first) and the backtrack level.
// The clause aliases a scratch buffer, valid until the next call.
func (s *Solver) analyze(confl int32) ([]cnf.Lit, int) {
	learnt := append(s.learntBuf[:0], 0) // placeholder for asserting literal
	seen := s.seen
	counter := 0
	p := cnf.Lit(-1)
	idx := len(s.trail) - 1

	for {
		if s.hdrs[confl].learnt {
			s.bumpClause(confl)
		}
		start := 0
		if p != cnf.Lit(-1) {
			start = 1 // skip the asserting literal of the reason clause
		}
		for _, q := range s.clauseLits(confl)[start:] {
			v := q.Var()
			if seen[v] || s.level[v] == 0 {
				continue
			}
			seen[v] = true
			s.bumpVar(v)
			if int(s.level[v]) == s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Find next literal on trail to resolve on.
		for !seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.Var()
		seen[v] = false
		counter--
		if counter == 0 {
			learnt[0] = p.Not()
			break
		}
		confl = s.reason[v]
	}

	// Clause minimization: drop literals implied by the rest. The vars
	// of learnt[1:] are still marked in seen from the resolution loop.
	s.clearBuf = append(s.clearBuf[:0], learnt[1:]...)
	j := 1
	for i := 1; i < len(learnt); i++ {
		v := learnt[i].Var()
		r := s.reason[v]
		if r < 0 {
			learnt[j] = learnt[i]
			j++
			continue
		}
		redundant := true
		for _, q := range s.clauseLits(r)[1:] {
			if !seen[q.Var()] && s.level[q.Var()] != 0 {
				redundant = false
				break
			}
		}
		if !redundant {
			learnt[j] = learnt[i]
			j++
		}
	}
	learnt = learnt[:j]
	for _, l := range s.clearBuf {
		seen[l.Var()] = false
	}
	s.learntBuf = learnt

	// Backtrack level: max level among learnt[1:].
	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = int(s.level[learnt[1].Var()])
	}
	return learnt, btLevel
}

// computeLBD counts the distinct decision levels among lits, marking
// each level with a fresh epoch instead of building a set.
func (s *Solver) computeLBD(lits []cnf.Lit) int32 {
	s.lbdEpoch++
	var n int32
	for _, l := range lits {
		lv := s.level[l.Var()]
		for int(lv) >= len(s.lbdStamp) {
			s.lbdStamp = append(s.lbdStamp, 0)
		}
		if s.lbdStamp[lv] != s.lbdEpoch {
			s.lbdStamp[lv] = s.lbdEpoch
			n++
		}
	}
	return n
}

func (s *Solver) pickBranchLit() cnf.Lit {
	// Occasional random decision diversifies the search. The draw
	// comes before the variable count check, so the PRNG stream, and
	// with it every trajectory, does not depend on that check.
	if s.cfg.RandomFreq > 0 && s.rng.Float64() < s.cfg.RandomFreq && s.NumVars() > 0 {
		v := cnf.Var(s.rng.Intn(s.NumVars()))
		if s.vals[cnf.MkLit(v, false)] == lUndef {
			return cnf.MkLit(v, !s.polarity[v])
		}
	}
	for {
		if s.heap.empty() {
			return cnf.Lit(-1)
		}
		v := cnf.Var(s.heap.removeMin())
		if s.vals[cnf.MkLit(v, false)] == lUndef {
			return cnf.MkLit(v, !s.polarity[v])
		}
	}
}

// reduceCand is a learnt clause reduceDB may delete.
type reduceCand struct {
	cref int32
	act  float32
	lbd  int32
}

// locked reports whether clause cref is the reason for an assignment.
// A reason clause's first literal is the one it implied (see
// propagate), so only that variable's reason needs checking.
func (s *Solver) locked(cref int32) bool {
	l := s.arena[s.hdrs[cref].start]
	return s.reason[l.Var()] == cref && s.vals[l] == lTrue
}

// reduceDB removes roughly half of the learnt clauses, preferring high
// LBD and low activity. Glue clauses (LBD <= 2) and reason clauses are
// kept. Deleted clauses keep their header as a tombstone; their arena
// literals are reclaimed once they make up half the arena.
func (s *Solver) reduceDB() {
	cands := s.cands[:0]
	for i := range s.hdrs {
		c := &s.hdrs[i]
		if c.learnt && !c.deleted && c.lbd > 2 && c.size > 2 && !s.locked(int32(i)) {
			cands = append(cands, reduceCand{int32(i), c.act, c.lbd})
		}
	}
	s.cands = cands
	if len(cands) < 2 {
		return
	}
	// Delete the worse half: high LBD, then low activity, first.
	// slices.SortFunc runs the same pdqsort as sort.Slice, so ties
	// between equally bad clauses break exactly as they always have.
	slices.SortFunc(cands, func(a, b reduceCand) int {
		if a.lbd != b.lbd {
			return cmp.Compare(b.lbd, a.lbd)
		}
		return cmp.Compare(a.act, b.act)
	})
	for _, c := range cands[:len(cands)/2] {
		h := &s.hdrs[c.cref]
		s.wasted += int(h.size)
		h.deleted = true
		h.size = 0
		s.learntCnt--
		s.stats.Removed++
	}
	if 2*s.wasted > len(s.arena) {
		s.compactArena()
	}
}

// compactArena slides every live clause's literals down over the
// deleted ones, keeping clause order; crefs do not change.
func (s *Solver) compactArena() {
	var n uint32
	for i := range s.hdrs {
		h := &s.hdrs[i]
		if h.deleted {
			h.start = 0
			continue
		}
		copy(s.arena[n:], s.arena[h.start:h.start+h.size])
		h.start = n
		n += h.size
	}
	s.arena = s.arena[:n]
	s.wasted = 0
}

// luby returns the x-th element (0-based) of the Luby restart sequence
// 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,...
func luby(x int64) int64 {
	size, seq := int64(1), 0
	for size < x+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != x {
		size = (size - 1) >> 1
		seq--
		x %= size
	}
	return int64(1) << seq
}

// SetDeadline aborts Solve with Unknown after the wall-clock deadline.
// The zero time disables the deadline.
func (s *Solver) SetDeadline(t time.Time) { s.deadline = t }

// SetConflictBudget aborts Solve with Unknown after n conflicts.
// Negative n means unlimited.
func (s *Solver) SetConflictBudget(n int64) { s.confBudget = n }

// SetContext attaches a cancellation context: once ctx is done, the
// running Solve aborts with Unknown at the next abort check and any
// later Solve returns Unknown at once. A nil context disables
// cancellation. The check shares the periodic abort poll with the
// deadline, so cancellation latency is a few hundred decisions, not
// instantaneous.
func (s *Solver) SetContext(ctx context.Context) { s.ctx = ctx }

// Stats returns accumulated counters.
func (s *Solver) Stats() Stats { return s.stats }

// NumClauses returns the number of clauses ever attached, problem and
// learnt. Learnt clauses reduceDB deleted still count: they keep a
// tombstone header, so the count never falls.
func (s *Solver) NumClauses() int { return len(s.hdrs) }

// Snapshot captures the externally observable solver state at a
// checkpoint: cumulative counters plus variable and clause counts. The
// solver is deterministic (fixed internal PRNG seed, no wall-clock
// dependence in the search itself), so re-running the same sequence of
// AddClause/Solve calls reproduces the same Snapshot — which is how the
// attack journal's replay path verifies it rebuilt the same solver.
type Snapshot struct {
	Stats   Stats `json:"stats"`
	Vars    int   `json:"vars"`
	Clauses int   `json:"clauses"`
}

// Snapshot returns the current state snapshot.
func (s *Solver) Snapshot() Snapshot {
	return Snapshot{Stats: s.stats, Vars: s.NumVars(), Clauses: s.NumClauses()}
}

// Okay reports whether the solver is still consistent at the top level
// (false once an unconditional contradiction has been derived).
func (s *Solver) Okay() bool { return s.okay }

// Model returns the satisfying assignment found by the last Sat solve;
// index by variable.
func (s *Solver) Model() []bool { return s.model }

// ModelValue returns the model value of a literal.
func (s *Solver) ModelValue(l cnf.Lit) bool {
	v := s.model[l.Var()]
	if l.Neg() {
		return !v
	}
	return v
}

// solveCalls counts every Solver.Solve invocation in the process,
// across all solver instances (portfolio workers included). It backs
// SolveCallsTotal, the accounting hook the result-cache differential
// tests use to prove a warm sweep ran zero solver calls; it will also
// feed the serving daemon's /metrics.
var solveCalls atomic.Int64

// SolveCallsTotal returns the process-wide number of Solve calls so
// far. Monotonic; compare two readings to count a region's calls.
func SolveCallsTotal() int64 { return solveCalls.Load() }

// Solve searches for a satisfying assignment under the given
// assumptions. It is incremental: clauses may be added between calls.
// It returns Unknown without searching when the deadline, conflict
// budget or context has already passed.
func (s *Solver) Solve(assumptions ...cnf.Lit) Status {
	solveCalls.Add(1)
	if !s.okay {
		return Unsat
	}
	// The search polls its budget only at a restart or every few
	// hundred steps, which an easy call never reaches.
	if s.aborted() {
		return Unknown
	}
	for _, a := range assumptions {
		s.ensureVar(a.Var())
	}
	s.assumps = assumptions
	defer s.cancelUntil(0)

	s.maxLearnt = float64(len(s.hdrs))*0.3 + 1000
	var restarts int64
	checkCounter := 0

	// Foreign shared clauses are adopted only at restart boundaries
	// (and by Portfolio.Solve before the race starts, in the parent):
	// a worker that never restarts keeps a trajectory that is a pure
	// function of its config and the clause database, untouched by the
	// race's scheduling.

	//rilvet:ignore ctx-loop cancellation is handled inside search via s.aborted(), which polls the deadline, conflict budget and SetContext context every few thousand conflicts
	for {
		budget := luby(restarts) * s.cfg.RestartUnit
		st := s.search(budget, &checkCounter)
		if st != Unknown {
			return st
		}
		// Distinguish restart from abort.
		if s.aborted() {
			return Unknown
		}
		restarts++
		s.stats.Restarts++
		s.cancelUntil(0)
		// Restart boundary: the trail is back at level 0, the cheapest
		// moment to adopt foreign learnt clauses.
		if !s.importShared() {
			s.okay = false
			return Unsat
		}
	}
}

// SetExchange attaches the solver to a portfolio clause exchange as
// reader/writer id. Learnt clauses with LBD at most the config's
// ShareLBDCap are published; foreign clauses are adopted at restart
// boundaries. Must be called before the first Solve.
func (s *Solver) SetExchange(x *ClauseExchange, id int) {
	s.exch = x
	s.exchID = id
	s.exchCursor = x.Cursor()
}

// importShared adopts every foreign shared clause published since the
// last import. It must be called at decision level 0. It reports
// false when an adopted clause produced a top-level conflict — the
// formula is UNSAT (shared clauses are logical consequences of the
// common clause database, so the verdict is sound).
func (s *Solver) importShared() bool {
	if s.exch == nil {
		return true
	}
	s.exchCursor, s.exchBuf = s.exch.Collect(s.exchID, s.exchCursor, s.exchBuf[:0])
	for _, sc := range s.exchBuf {
		if !s.importClause(sc.Lits, sc.LBD) {
			return false
		}
	}
	return true
}

// importClause adds one foreign learnt clause at decision level 0,
// simplifying against the level-0 trail. It reports false on a
// top-level conflict. Shared clauses come out of another worker's
// conflict analysis, so they contain no duplicate or complementary
// literals.
func (s *Solver) importClause(lits []cnf.Lit, lbd int32) bool {
	if !s.okay {
		return false
	}
	norm := s.addBuf[:0]
	for _, l := range lits {
		s.ensureVar(l.Var())
		switch s.litValue(l) {
		case lTrue:
			return true // already satisfied at level 0
		case lFalse:
			continue // drop
		}
		norm = append(norm, l)
	}
	s.addBuf = norm
	s.stats.Imported++
	switch len(norm) {
	case 0:
		return false
	case 1:
		s.uncheckedEnqueue(norm[0], -1)
		return s.propagate() < 0
	}
	cref := s.attachClause(norm, true)
	s.hdrs[cref].lbd = lbd
	return true
}

func (s *Solver) aborted() bool {
	if s.confBudget >= 0 && s.stats.Conflicts >= s.confBudget {
		return true
	}
	if !s.deadline.IsZero() && time.Now().After(s.deadline) {
		return true
	}
	if s.ctx != nil {
		select {
		case <-s.ctx.Done():
			return true
		default:
		}
	}
	return false
}

// search runs CDCL until a result, a conflict budget for this restart
// is exhausted (returns Unknown), or an abort condition triggers.
func (s *Solver) search(nConflicts int64, checkCounter *int) Status {
	var conflictsHere int64
	for {
		confl := s.propagate()
		if confl >= 0 {
			// Conflict.
			s.stats.Conflicts++
			conflictsHere++
			if s.decisionLevel() == 0 {
				s.okay = false
				return Unsat
			}
			learnt, btLevel := s.analyze(confl)
			// Never backtrack past the assumption levels without
			// reporting: if the asserting literal contradicts an
			// assumption we will discover it on re-propagation.
			s.cancelUntil(btLevel)
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], -1)
				if s.exch != nil {
					s.exch.Publish(s.exchID, 1, learnt)
					s.stats.Exported++
				}
			} else {
				cref := s.attachClause(learnt, true)
				lbd := s.computeLBD(learnt)
				s.hdrs[cref].lbd = lbd
				s.bumpClause(cref)
				s.uncheckedEnqueue(learnt[0], cref)
				if s.exch != nil && lbd <= s.cfg.ShareLBDCap {
					s.exch.Publish(s.exchID, lbd, learnt)
					s.stats.Exported++
				}
			}
			s.stats.Learnt++
			s.varInc /= s.cfg.VarDecay
			s.claInc /= s.cfg.ClauseDecay
			if float64(s.learntCnt) > s.maxLearnt {
				s.reduceDB()
				s.maxLearnt *= 1.1
			}
			continue
		}

		// No conflict.
		*checkCounter++
		if *checkCounter&255 == 0 && s.aborted() {
			return Unknown
		}
		if conflictsHere >= nConflicts {
			return Unknown // restart
		}

		// Assumptions before free decisions.
		var next cnf.Lit = cnf.Lit(-1)
		for s.decisionLevel() < len(s.assumps) {
			a := s.assumps[s.decisionLevel()]
			switch s.litValue(a) {
			case lTrue:
				s.limits = append(s.limits, len(s.trail)) // dummy level
				continue
			case lFalse:
				return Unsat // conflicting assumptions
			default:
				next = a
			}
			break
		}
		if next == cnf.Lit(-1) {
			next = s.pickBranchLit()
			if next == cnf.Lit(-1) {
				// All variables assigned: model found.
				s.model = make([]bool, s.NumVars())
				for v := range s.model {
					s.model[v] = s.vals[cnf.MkLit(cnf.Var(v), false)] == lTrue
				}
				return Sat
			}
			s.stats.Decisions++
		}
		s.limits = append(s.limits, len(s.trail))
		if d := s.decisionLevel(); d > s.stats.MaxDepth {
			s.stats.MaxDepth = d
		}
		s.uncheckedEnqueue(next, -1)
	}
}

// String summarizes stats. The clause-sharing counters only appear
// when a portfolio actually exchanged clauses, so sequential output
// is unchanged.
func (st Stats) String() string {
	s := fmt.Sprintf("decisions=%d propagations=%d conflicts=%d restarts=%d learnt=%d removed=%d maxdepth=%d",
		st.Decisions, st.Propagations, st.Conflicts, st.Restarts, st.Learnt, st.Removed, st.MaxDepth)
	if st.Exported != 0 || st.Imported != 0 {
		s += fmt.Sprintf(" exported=%d imported=%d", st.Exported, st.Imported)
	}
	return s
}
