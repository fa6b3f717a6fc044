package serve

import (
	"context"
	"slices"
	"sync"
)

// queue is the daemon's scheduler: one FIFO, so jobs dispatch in
// submission order.
type queue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	jobs   []*jobState
	closed bool
}

func newQueue() *queue {
	q := &queue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues a job at the back. Returns false if the queue is
// closed (draining daemon).
func (q *queue) push(js *jobState) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	q.jobs = append(q.jobs, js)
	q.cond.Signal()
	return true
}

// popWait blocks until a job is available, the queue closes, or ctx is
// done. The caller must arrange for close(), or a context.AfterFunc
// calling wake(), to unblock waiters on cancellation.
func (q *queue) popWait(ctx context.Context) (*jobState, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.closed || ctx.Err() != nil {
			return nil, false
		}
		if len(q.jobs) > 0 {
			js := q.jobs[0]
			q.jobs[0] = nil // so the backing array does not keep it alive
			q.jobs = q.jobs[1:]
			return js, true
		}
		q.cond.Wait()
	}
}

// remove deletes a queued job by ID (user cancellation). Returns the
// job if it was still queued.
func (q *queue) remove(id string) *jobState {
	q.mu.Lock()
	defer q.mu.Unlock()
	for i, js := range q.jobs {
		if js.id == id {
			q.jobs = slices.Delete(q.jobs, i, i+1)
			return js
		}
	}
	return nil
}

// size reports the queued-job count.
func (q *queue) size() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.jobs)
}

// close stops dispatch: popWait returns immediately and push refuses.
// Already-queued jobs stay in place — their persisted specs re-enqueue
// them on the next daemon start.
func (q *queue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// wake unblocks all waiters so they can observe context cancellation.
func (q *queue) wake() { q.cond.Broadcast() }
