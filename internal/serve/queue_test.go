package serve

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"
)

// qjob builds a queued jobState stub.
func qjob(id string) *jobState {
	return &jobState{
		id:   id,
		spec: &JobSpec{},
		subs: map[int]chan []byte{},
		done: make(chan struct{}),
	}
}

func popIDs(t *testing.T, q *queue, n int) []string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	stop := context.AfterFunc(ctx, q.wake)
	defer stop()
	var out []string
	for i := 0; i < n; i++ {
		js, ok := q.popWait(ctx)
		if !ok {
			t.Fatalf("queue closed after %d pops, want %d", i, n)
		}
		out = append(out, js.id)
	}
	return out
}

// TestQueueSubmissionOrder: jobs pop in the order they were pushed,
// also when pushes and pops interleave.
func TestQueueSubmissionOrder(t *testing.T) {
	q := newQueue()
	for i := 0; i < 4; i++ {
		q.push(qjob(fmt.Sprintf("j%d", i)))
	}
	got := popIDs(t, q, 1)
	q.push(qjob("j4"))
	q.push(qjob("j5"))
	got = append(got, popIDs(t, q, 5)...)
	want := []string{"j0", "j1", "j2", "j3", "j4", "j5"}
	if !slices.Equal(got, want) {
		t.Fatalf("pop order %v, want %v", got, want)
	}
}

// TestQueueRemove: a removed (cancelled) job never dispatches; depth
// accounting follows.
func TestQueueRemove(t *testing.T) {
	q := newQueue()
	q.push(qjob("keep"))
	q.push(qjob("drop"))
	if q.remove("drop") == nil {
		t.Fatal("remove failed to find queued job")
	}
	if q.remove("drop") != nil {
		t.Fatal("second remove found a ghost")
	}
	if q.size() != 1 {
		t.Fatalf("size = %d, want 1", q.size())
	}
	if got := popIDs(t, q, 1); got[0] != "keep" {
		t.Fatalf("popped %q, want keep", got[0])
	}
}

// TestQueueCloseUnblocks: close wakes a blocked popWait with ok=false
// and push refuses afterwards; queued jobs stay put for the next
// daemon start.
func TestQueueCloseUnblocks(t *testing.T) {
	q := newQueue()
	unblocked := make(chan bool, 1)
	go func() {
		defer close(unblocked)
		_, ok := q.popWait(context.Background())
		unblocked <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	q.close()
	select {
	case ok := <-unblocked:
		if ok {
			t.Fatal("popWait returned a job from an empty closed queue")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("close did not unblock popWait")
	}
	if q.push(qjob("late")) {
		t.Fatal("push succeeded on a closed queue")
	}
	q.push(qjob("x")) // refused, but must not panic
}

// TestQueueContextCancelUnblocks: a cancelled context (wired through
// wake, as the server's AfterFunc does) unblocks waiters.
func TestQueueContextCancelUnblocks(t *testing.T) {
	q := newQueue()
	ctx, cancel := context.WithCancel(context.Background())
	stop := context.AfterFunc(ctx, q.wake)
	defer stop()
	unblocked := make(chan bool, 1)
	go func() {
		defer close(unblocked)
		_, ok := q.popWait(ctx)
		unblocked <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case ok := <-unblocked:
		if ok {
			t.Fatal("popWait returned a job after context cancel")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel did not unblock popWait")
	}
}
