package cache

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentGetPutGC hammers one cache directory from many
// goroutines mixing Get, Put and GC — the ci.sh race stage runs this
// under -race. The invariants: no data race, no panic, and every
// successful Get returns exactly the payload some Put stored for that
// key (checksummed entries can't interleave into hybrids).
func TestConcurrentGetPutGC(t *testing.T) {
	c, err := Open(t.TempDir(), Options{MaxBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers = 8
		rounds  = 40
		keys    = 6
	)
	keySet := make([]Key, keys)
	payloads := make([][]byte, keys)
	for i := range keySet {
		keySet[i] = testKey(t, fmt.Sprintf("race-%d", i))
		payloads[i] = bytes.Repeat([]byte{byte('a' + i)}, 64+i)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (w + r) % keys
				switch r % 3 {
				case 0:
					if err := c.Put(keySet[i], payloads[i]); err != nil {
						t.Errorf("worker %d: Put: %v", w, err)
						return
					}
				case 1:
					if got, ok := c.Get(keySet[i]); ok && !bytes.Equal(got, payloads[i]) {
						t.Errorf("worker %d: Get returned foreign payload %q", w, got)
						return
					}
				case 2:
					if _, err := c.GC(); err != nil {
						t.Errorf("worker %d: GC: %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// Settle: after a final Put each key must read back intact.
	for i := range keySet {
		if err := c.Put(keySet[i], payloads[i]); err != nil {
			t.Fatal(err)
		}
		if got, ok := c.Get(keySet[i]); !ok || !bytes.Equal(got, payloads[i]) {
			t.Fatalf("key %d corrupt after concurrent load (ok=%v)", i, ok)
		}
	}
}
