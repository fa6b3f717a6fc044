package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/attack"
)

// span is one traced interval at a layer boundary. Times are
// nanoseconds since the tracer started; spans of one op share Op, and
// Parent is the span that caused this one (0 for an op's root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// stat accumulates the samples of one named layer quantity.
type stat struct {
	sum float64
	n   int
}

// tracer keeps a traced run's spans and layer counters in memory; they
// are written out when the run ends. The untraced run has no tracer:
// every opCtx method checks for nil and does nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	stats map[string]*stat
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), stats: map[string]*stat{}}
}

func (t *tracer) at(when time.Time) int64 { return int64(when.Sub(t.t0)) }

// open appends a span that has started and returns its id.
func (t *tracer) open(op int, parent int64, name string, start time.Time) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: t.at(start)})
	return id
}

// end sets the end of an open span.
func (t *tracer) end(id int64, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = t.at(end)
}

// add records a span that has ended.
func (t *tracer) add(op int, parent int64, name string, start, end time.Time) {
	t.end(t.open(op, parent, name, start), end)
}

// observe adds one sample to a named layer quantity.
func (t *tracer) observe(name string, v float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.stats[name]
	if s == nil {
		s = &stat{}
		t.stats[name] = s
	}
	s.sum += v
	s.n++
}

// sum and mean read a layer quantity; both are 0 when it was never
// observed.
func (t *tracer) sum(name string) float64 {
	if s := t.stats[name]; s != nil {
		return s.sum
	}
	return 0
}

func (t *tracer) mean(name string) float64 {
	if s := t.stats[name]; s != nil && s.n > 0 {
		return s.sum / float64(s.n)
	}
	return 0
}

// spanMeanMS is the mean duration of the spans with the given name.
func (t *tracer) spanMeanMS(name string) float64 {
	var total int64
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			total += s.End - s.Start
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n) / 1e6
}

// selfTimes returns, per span name, the total self time: each span's
// duration minus the part of its interval its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		self[s.Name] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	cur := parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, cur), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// writeSpans writes one JSON span per line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("spans: %w (close: %v)", err, f.Close())
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("spans: %w (close: %v)", err, f.Close())
	}
	return f.Close()
}

// opCtx carries one op's identity and its current parent span into the
// layer calls the op makes.
type opCtx struct {
	tr     *tracer
	op     int
	parent int64
}

// span opens a child span. It returns the context for calls made
// inside the span and the function that closes it.
func (c opCtx) span(name string) (opCtx, func()) {
	if c.tr == nil {
		return c, func() {}
	}
	id := c.tr.open(c.op, c.parent, name, time.Now())
	return opCtx{tr: c.tr, op: c.op, parent: id}, func() { c.tr.end(id, time.Now()) }
}

// interval records a span whose ends were measured elsewhere, such as
// the daemon's queue and run phases read back from a job view.
func (c opCtx) interval(name string, start, end time.Time) {
	if c.tr != nil && !start.IsZero() && !end.IsZero() {
		c.tr.add(c.op, c.parent, name, start, end)
	}
}

func (c opCtx) observe(name string, v float64) {
	if c.tr != nil {
		c.tr.observe(name, v)
	}
}

// timedOracle is the traced run's attack oracle: every query becomes an
// oracle span under the attack that issued it, and its duration counts
// as oracle busy time. It implements attack.BatchOracle because
// attack.AsBatch would otherwise answer AppSAT's and Sensitize's
// 64-pattern queries with 64 scalar ones, which is a different program
// from the untraced run.
type timedOracle struct {
	inner attack.BatchOracle
	c     opCtx
	busy  time.Duration
}

var _ attack.BatchOracle = (*timedOracle)(nil)

func (o *timedOracle) Query(in []bool) []bool {
	start := time.Now()
	out := o.inner.Query(in)
	o.done("oracle.Query", start)
	return out
}

func (o *timedOracle) QueryWords(in []uint64) []uint64 {
	start := time.Now()
	out := o.inner.QueryWords(in)
	o.done("oracle.QueryWords", start)
	return out
}

func (o *timedOracle) done(name string, start time.Time) {
	end := time.Now()
	o.busy += end.Sub(start)
	o.c.tr.add(o.c.op, o.c.parent, name, start, end)
}

func (o *timedOracle) NumInputs() int  { return o.inner.NumInputs() }
func (o *timedOracle) NumOutputs() int { return o.inner.NumOutputs() }
func (o *timedOracle) Queries() int    { return o.inner.Queries() }

// oracle returns the oracle an attack in this op should query: the
// bare oracle untraced, a timedOracle under the current span traced.
// The second result is nil untraced.
func (c opCtx) oracle(o *attack.SimOracle) (attack.Oracle, *timedOracle) {
	if c.tr == nil {
		return o, nil
	}
	t := &timedOracle{inner: o, c: c}
	return t, t
}

// busyTime is the oracle time of a possibly-nil timedOracle.
func (o *timedOracle) busyTime() time.Duration {
	if o == nil {
		return 0
	}
	return o.busy
}
