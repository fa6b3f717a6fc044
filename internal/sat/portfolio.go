package sat

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/cnf"
)

// Engine is the incremental solving interface shared by the
// sequential Solver and the racing Portfolio, so callers like the
// SAT-attack DIP loop can be written once against either. An Engine
// is not safe for concurrent use; like a Solver, calls must be
// serialized by the caller.
type Engine interface {
	NewVar() cnf.Var
	NumVars() int
	NumClauses() int
	AddClause(lits ...cnf.Lit) bool
	AddFormula(f *cnf.Formula) bool
	Solve(assumptions ...cnf.Lit) Status
	Model() []bool
	ModelValue(l cnf.Lit) bool
	Stats() Stats
	Snapshot() Snapshot
	SetDeadline(t time.Time)
	SetContext(ctx context.Context)
}

// Compile-time interface checks.
var (
	_ Engine = (*Solver)(nil)
	_ Engine = (*Portfolio)(nil)
)

// NewEngine returns a solving engine: a plain sequential Solver for
// portfolio sizes below 2, a racing Portfolio otherwise.
func NewEngine(portfolio int) Engine {
	if portfolio < 2 {
		return New()
	}
	return NewPortfolio(portfolio)
}

// Portfolio races n CDCL solvers with diverse heuristics
// (DiverseConfigs) over an identical clause database. Each Solve call
// runs every worker concurrently under a shared cancellation context:
// the first definitive SAT/UNSAT verdict wins and cancels the rest,
// and workers exchange low-LBD learnt clauses through a bounded
// ClauseExchange while they search.
//
// Determinism contract: a Portfolio is *verdict-deterministic* — for
// a fixed clause/Solve sequence the SAT/UNSAT answers never vary,
// because every worker is sound and complete — but
// *trace-nondeterministic*: which worker wins, the model it returns
// on SAT, and the per-worker statistics depend on scheduling. Callers
// that need a reproducible trace (journal replay) must use the
// sequential Solver.
type Portfolio struct {
	workers []*Solver
	exch    *ClauseExchange
	okay    bool
	winner  int // worker index of the last definitive verdict, -1 before
	model   []bool

	ctx      context.Context
	deadline time.Time
}

// NewPortfolio returns a portfolio of n racing workers (n < 2 is
// raised to 2; use New for a sequential solver). Worker 0 runs the
// default sequential configuration, the rest diversified ones.
func NewPortfolio(n int) *Portfolio {
	if n < 2 {
		n = 2
	}
	p := &Portfolio{
		exch:   NewClauseExchange(0),
		okay:   true,
		winner: -1,
	}
	for i, cfg := range DiverseConfigs(n) {
		w := NewWithConfig(cfg)
		w.SetExchange(p.exch, i)
		p.workers = append(p.workers, w)
	}
	return p
}

// WorkerStats returns each worker's own cumulative counters (index-
// aligned with the racing order). Only valid between Solve calls.
func (p *Portfolio) WorkerStats() []Stats {
	out := make([]Stats, len(p.workers))
	for i, w := range p.workers {
		out[i] = w.Stats()
	}
	return out
}

// NewVar allocates the same fresh variable in every worker.
func (p *Portfolio) NewVar() cnf.Var {
	v := p.workers[0].NewVar()
	for _, w := range p.workers[1:] {
		w.NewVar()
	}
	return v
}

// NumVars returns the number of allocated variables.
func (p *Portfolio) NumVars() int { return p.workers[0].NumVars() }

// NumClauses returns worker 0's clause count (problem clauses plus
// that worker's learnt/imported clauses; workers diverge in learnt
// clauses, never in problem clauses).
func (p *Portfolio) NumClauses() int { return p.workers[0].NumClauses() }

// AddClause adds a problem clause to every worker. It returns false
// once any worker derives a top-level contradiction — each worker's
// state is a logical consequence of the shared clause database, so
// one worker's contradiction is everyone's.
func (p *Portfolio) AddClause(lits ...cnf.Lit) bool {
	for _, w := range p.workers {
		if !w.AddClause(lits...) {
			p.okay = false
		}
	}
	return p.okay
}

// AddFormula adds every clause of a CNF formula to every worker.
func (p *Portfolio) AddFormula(f *cnf.Formula) bool {
	for _, w := range p.workers {
		if !w.AddFormula(f) {
			p.okay = false
		}
	}
	return p.okay
}

// SetDeadline bounds every subsequent Solve call by wall clock; the
// zero time disables the deadline.
func (p *Portfolio) SetDeadline(t time.Time) { p.deadline = t }

// SetContext attaches a cancellation context observed by every
// worker during Solve. A nil context disables cancellation.
func (p *Portfolio) SetContext(ctx context.Context) { p.ctx = ctx }

// Stats returns the sum of all workers' counters (MaxDepth is the
// maximum). Race-free: workers only mutate their counters inside
// Solve, and Solve joins every worker before returning.
func (p *Portfolio) Stats() Stats {
	var total Stats
	for _, w := range p.workers {
		total.Add(w.Stats())
	}
	return total
}

// Snapshot returns the aggregated counters plus worker 0's variable
// and clause counts. Unlike the sequential solver's snapshot it is
// trace-nondeterministic and unsuitable for replay verification;
// journals record it for observability only.
func (p *Portfolio) Snapshot() Snapshot {
	return Snapshot{Stats: p.Stats(), Vars: p.NumVars(), Clauses: p.NumClauses()}
}

// Model returns the satisfying assignment found by the winning
// worker of the last Sat verdict; index by variable.
func (p *Portfolio) Model() []bool { return p.model }

// ModelValue returns the model value of a literal.
func (p *Portfolio) ModelValue(l cnf.Lit) bool {
	v := p.model[l.Var()]
	if l.Neg() {
		return !v
	}
	return v
}

// verdict is one worker's Solve outcome.
type verdict struct {
	id int
	st Status
}

// Solve races every worker on the same assumptions. The first
// definitive SAT/UNSAT verdict wins and cancels the rest; Unknown is
// returned only when every worker exhausted its deadline or context.
// All workers are joined before Solve returns, so the portfolio is
// quiescent — and its aggregate Stats consistent — afterwards.
func (p *Portfolio) Solve(assumptions ...cnf.Lit) Status {
	if !p.okay {
		return Unsat
	}
	// Drain the exchange into every worker *before* the race starts,
	// in fixed order from the parent goroutine. This keeps the set of
	// clauses a worker starts from a deterministic function of the
	// Solve history rather than of how far the earliest-scheduled
	// worker got before the later ones were spawned; during the race
	// itself workers import only at their own restart boundaries.
	for _, w := range p.workers {
		if !w.importShared() {
			p.okay = false
			return Unsat
		}
	}
	base := p.ctx
	if base == nil {
		base = context.Background()
	}
	ctx, cancel := context.WithCancel(base)
	defer cancel()

	results := make(chan verdict, len(p.workers)) // buffered: sends never block
	var wg sync.WaitGroup
	for i, w := range p.workers {
		w.SetContext(ctx)
		w.SetDeadline(p.deadline)
		wg.Add(1)
		go func(id int, w *Solver) {
			defer wg.Done()
			results <- verdict{id, w.Solve(assumptions...)}
		}(i, w)
	}

	st := Unknown
	p.winner = -1
	for range p.workers {
		v := <-results
		if v.st != Unknown {
			st, p.winner = v.st, v.id
			break
		}
	}
	cancel()
	wg.Wait()

	// Late verdicts from workers that finished before the
	// cancellation landed must agree — the workers share one clause
	// database and are individually sound. A disagreement is a solver
	// bug, and silently picking one answer would corrupt the attack.
	for len(results) > 0 {
		v := <-results
		if v.st != Unknown && st != Unknown && v.st != st {
			panic(fmt.Sprintf("sat: portfolio workers disagree: worker %d says %v, worker %d says %v",
				p.winner, st, v.id, v.st))
		}
		if v.st != Unknown && st == Unknown {
			st, p.winner = v.st, v.id
		}
	}

	if st == Sat {
		p.model = append(p.model[:0], p.workers[p.winner].Model()...)
	}
	if st == Unsat {
		// Workers may legitimately disagree on okay (one may have
		// derived a top-level contradiction from imported clauses);
		// the portfolio is closed for business only when the formula
		// itself — not the assumptions — is contradictory.
		for _, w := range p.workers {
			if !w.Okay() {
				p.okay = false
				break
			}
		}
	}
	return st
}
