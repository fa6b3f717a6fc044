package sat

import (
	"sync"

	"repro/internal/cnf"
)

// ClauseExchange is the bounded learnt-clause exchange of a solver
// portfolio. Workers publish high-quality learnt clauses (low LBD) as
// they derive them and collect the other workers' clauses at restart
// boundaries. The buffer is a fixed-capacity ring with a global
// sequence number per slot: publishing never blocks (the oldest
// clause is dropped when the ring is full — clause sharing is an
// optimization, losing a clause costs nothing but duplicated search),
// and collecting copies out only the struct headers, not the literal
// slices, which are write-once and safely shared once published.
//
// The critical sections are a few pointer moves — no allocation, no
// solver calls — so although the implementation uses a plain mutex
// rather than atomics, no worker ever waits on another's search. The
// race detector sees every access synchronized, which is the point:
// "lock-free-ish" here means bounded and non-blocking semantics, not
// unsynchronized memory.
type ClauseExchange struct {
	mu   sync.Mutex
	ring []SharedClause
	next uint64 // sequence number of the next publish
}

// SharedClause is one published learnt clause. Lits is owned by the
// exchange and must not be mutated by readers.
type SharedClause struct {
	From int // publishing worker id
	LBD  int32
	Lits []cnf.Lit
}

// DefaultExchangeCapacity bounds the clauses a portfolio retains for
// late readers; a slow worker that falls further behind re-derives
// what it missed instead of growing the buffer.
const DefaultExchangeCapacity = 4096

// NewClauseExchange returns an exchange retaining at most capacity
// clauses (<= 0 uses DefaultExchangeCapacity).
func NewClauseExchange(capacity int) *ClauseExchange {
	if capacity <= 0 {
		capacity = DefaultExchangeCapacity
	}
	return &ClauseExchange{ring: make([]SharedClause, capacity)}
}

// Publish adds one clause to the exchange, evicting the oldest
// retained clause when full. The literal slice is copied; callers may
// reuse theirs.
func (x *ClauseExchange) Publish(from int, lbd int32, lits []cnf.Lit) {
	if len(lits) == 0 {
		return
	}
	cp := append([]cnf.Lit(nil), lits...)
	x.mu.Lock()
	x.ring[x.next%uint64(len(x.ring))] = SharedClause{From: from, LBD: lbd, Lits: cp}
	x.next++
	x.mu.Unlock()
}

// Cursor returns the position a new reader should start from: only
// clauses published after this call will be collected.
func (x *ClauseExchange) Cursor() uint64 {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.next
}

// Collect appends to dst every clause published at or after cursor by
// a worker other than reader, and returns the new cursor. Clauses the
// reader fell too far behind to see (evicted) are skipped silently; a
// reader never observes a clause twice.
func (x *ClauseExchange) Collect(reader int, cursor uint64, dst []SharedClause) (uint64, []SharedClause) {
	x.mu.Lock()
	defer x.mu.Unlock()
	start := uint64(0)
	if x.next > uint64(len(x.ring)) {
		start = x.next - uint64(len(x.ring))
	}
	if cursor > start {
		start = cursor
	}
	for seq := start; seq < x.next; seq++ {
		sc := x.ring[seq%uint64(len(x.ring))]
		if sc.From == reader {
			continue
		}
		dst = append(dst, sc)
	}
	return x.next, dst
}
