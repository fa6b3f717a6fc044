package sat

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cnf"
)

// TestClauseExchangeBasics covers the single-threaded contract:
// publish/collect ordering, self-filtering, cursor monotonicity and
// drop-oldest eviction.
func TestClauseExchangeBasics(t *testing.T) {
	x := NewClauseExchange(4)
	cur := x.Cursor()
	if cur != 0 {
		t.Fatalf("fresh cursor = %d, want 0", cur)
	}

	lit := func(v int) []cnf.Lit { return []cnf.Lit{cnf.MkLit(cnf.Var(v), false)} }
	x.Publish(0, 1, lit(10))
	x.Publish(1, 1, lit(11))
	x.Publish(0, 1, lit(12))

	// Reader 0 sees only worker 1's clause.
	cur0, got := x.Collect(0, 0, nil)
	if cur0 != 3 || len(got) != 1 || got[0].From != 1 || got[0].Lits[0].Var() != 11 {
		t.Fatalf("reader 0 collected %v (cursor %d)", got, cur0)
	}
	// Re-collecting from the new cursor yields nothing.
	cur0, got = x.Collect(0, cur0, nil)
	if cur0 != 3 || len(got) != 0 {
		t.Fatalf("re-collect returned %v (cursor %d)", got, cur0)
	}

	// Overflow: capacity 4, publish 6 more; a reader at cursor 0 only
	// sees the last 4.
	for v := 20; v < 26; v++ {
		x.Publish(2, 1, lit(v))
	}
	_, got = x.Collect(0, 0, nil)
	if len(got) != 4 {
		t.Fatalf("post-overflow collect returned %d clauses, want 4", len(got))
	}
	for i, sc := range got {
		if want := cnf.Var(22 + i); sc.Lits[0].Var() != want {
			t.Fatalf("clause %d is var %d, want %d (oldest must be evicted first)", i, sc.Lits[0].Var(), want)
		}
	}

	// Empty clauses are ignored; published literal slices are copies.
	x.Publish(0, 0, nil)
	src := lit(30)
	x.Publish(0, 1, src)
	src[0] = cnf.MkLit(cnf.Var(31), true)
	_, got = x.Collect(1, x.Cursor()-1, nil)
	if len(got) != 1 || got[0].Lits[0].Var() != 30 {
		t.Fatalf("published clause aliases the caller's slice: %v", got)
	}
}

// TestClauseExchangeConcurrent hammers one exchange from several
// goroutines (the portfolio's actual access pattern) so `go test
// -race` can prove the synchronization. Each reader checks it never
// receives its own clauses and that its cursor never goes backwards.
func TestClauseExchangeConcurrent(t *testing.T) {
	x := NewClauseExchange(64)
	const workers, rounds = 4, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			var cursor uint64
			var buf []SharedClause
			for i := 0; i < rounds; i++ {
				x.Publish(id, 2, []cnf.Lit{
					cnf.MkLit(cnf.Var(id), false),
					cnf.MkLit(cnf.Var(i%7+workers), true),
				})
				next, out := x.Collect(id, cursor, buf[:0])
				if next < cursor {
					t.Errorf("worker %d: cursor went backwards: %d -> %d", id, cursor, next)
					return
				}
				for _, sc := range out {
					if sc.From == id {
						t.Errorf("worker %d: collected its own clause", id)
						return
					}
					if len(sc.Lits) == 0 {
						t.Errorf("worker %d: collected empty clause", id)
						return
					}
				}
				cursor, buf = next, out
			}
		}(w)
	}
	wg.Wait()
}

// FuzzClauseExchange drives random publish/collect interleavings and
// checks the structural invariants: cursors are monotone and agree
// with Cursor(), a collect never exceeds capacity or total published
// clauses, self-published clauses are filtered, and collected clauses
// are never empty.
func FuzzClauseExchange(f *testing.F) {
	f.Add(uint8(4), uint16(64), int64(1))
	f.Add(uint8(1), uint16(300), int64(7))
	f.Add(uint8(200), uint16(500), int64(-3))
	f.Fuzz(func(t *testing.T, capRaw uint8, opsRaw uint16, seed int64) {
		capacity := int(capRaw%16) + 1
		ops := int(opsRaw % 512)
		x := NewClauseExchange(capacity)
		rng := rand.New(rand.NewSource(seed))

		const readers = 3
		var cursors [readers]uint64
		published := 0
		for op := 0; op < ops; op++ {
			if rng.Intn(3) == 0 {
				n := 1 + rng.Intn(4)
				lits := make([]cnf.Lit, n)
				for j := range lits {
					lits[j] = cnf.MkLit(cnf.Var(rng.Intn(8)), rng.Intn(2) == 0)
				}
				x.Publish(rng.Intn(readers), int32(n), lits)
				published++
				continue
			}
			r := rng.Intn(readers)
			next, out := x.Collect(r, cursors[r], nil)
			if next < cursors[r] {
				t.Fatalf("reader %d: cursor went backwards: %d -> %d", r, cursors[r], next)
			}
			if next != x.Cursor() {
				t.Fatalf("reader %d: Collect cursor %d != Cursor() %d", r, next, x.Cursor())
			}
			if len(out) > capacity {
				t.Fatalf("reader %d: collected %d clauses, capacity %d", r, len(out), capacity)
			}
			if len(out) > published {
				t.Fatalf("reader %d: collected %d clauses, only %d published", r, len(out), published)
			}
			for _, sc := range out {
				if sc.From == r {
					t.Fatalf("reader %d: collected its own clause", r)
				}
				if len(sc.Lits) == 0 {
					t.Fatalf("reader %d: collected empty clause", r)
				}
			}
			cursors[r] = next
		}
	})
}
