package cache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/testutil"
)

func testKey(t *testing.T, label string) Key {
	t.Helper()
	k, err := NewKey("test").Bytes("label", []byte(label)).Key()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func openTest(t *testing.T, dir string) *Cache {
	t.Helper()
	c, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c := openTest(t, dir)
	k := testKey(t, "a")
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	payload := []byte(`{"status":"key found","iterations":12}`)
	if err := c.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(k)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	// Overwrite is allowed and replaces.
	if err := c.Put(k, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.Get(k); string(got) != "v2" {
		t.Fatalf("after overwrite Get = %q", got)
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 1 || s.Puts != 2 || s.Invalidations != 0 {
		t.Fatalf("stats = %+v", s)
	}

	// A second Open over the same directory (fresh process) must still
	// accept the entry.
	c2 := openTest(t, dir)
	if got, ok := c2.Get(k); !ok || string(got) != "v2" {
		t.Fatalf("reopened Get = %q, %v", got, ok)
	}

	// An entry file copied from another cache directory under the same
	// key is the same entry: a hit with the same payload.
	other := openTest(t, t.TempDir())
	if err := other.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	rewriteEntry(t, c.entryPath(k), func([]byte) []byte {
		raw, err := os.ReadFile(other.entryPath(k))
		if err != nil {
			t.Fatal(err)
		}
		return raw
	})
	if got, ok := c.Get(k); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("copied entry Get = %q, %v", got, ok)
	}

	// A directory holding the 16-byte master key file of a build that
	// sealed its entries opens, and its entries still read.
	if err := os.WriteFile(filepath.Join(dir, "key"), bytes.Repeat([]byte{0xa5}, 16), 0o600); err != nil {
		t.Fatal(err)
	}
	c3 := openTest(t, dir)
	if got, ok := c3.Get(k); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get beside a leftover key file = %q, %v", got, ok)
	}

	// Entry paths keep the bytes filepath.Join gives, however the
	// directory is spelled, so entries stored before stay found.
	for _, d := range []string{dir, dir + "/", dir + "/./"} {
		hex := k.String()
		if got, want := openTest(t, d).entryPath(k), filepath.Join(d, "entries", hex[:2], hex); got != want {
			t.Errorf("Open(%q): entry path %q, want %q", d, got, want)
		}
	}

	// An invalid key never stores or hits.
	if _, ok := c.Get(Key{}); ok {
		t.Fatal("zero key hit")
	}
	if err := c.Put(Key{}, []byte("x")); err == nil {
		t.Fatal("zero key Put must fail")
	}
}

// rewriteEntry replaces the file at path with edit's result.
func rewriteEntry(t *testing.T, path string, edit func(raw []byte) []byte) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, edit(raw), 0o644); err != nil {
		t.Fatal(err)
	}
}

// tamperCase mutates entry A's file, or for a swap both A's and B's.
type tamperCase struct {
	name string
	mut  func(t *testing.T, pathA, pathB string)
}

// tamperA and tamperB are the payloads runTamperCases stores under the
// keys "a" and "b" before each mutation.
var tamperA, tamperB = []byte(`{"v":"a"}`), []byte(`{"v":"b"}`)

// tamperEntryLen is the size of the entry file that holds tamperA.
var tamperEntryLen = headerLen + secondsPrefixLen + len(tamperA)

// runTamperCases runs each case on a fresh cache holding entries A and
// B. Every case must fail the entry check into exactly one logged
// invalidation, never a panic or stale data, and a recompute must
// rewrite the entry.
func runTamperCases(t *testing.T, cases []tamperCase) {
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := openTest(t, t.TempDir())
			ka, kb := testKey(t, "a"), testKey(t, "b")
			if err := c.Put(ka, tamperA); err != nil {
				t.Fatal(err)
			}
			if err := c.Put(kb, tamperB); err != nil {
				t.Fatal(err)
			}
			tc.mut(t, c.entryPath(ka), c.entryPath(kb))

			if got, ok := c.Get(ka); ok {
				t.Fatalf("tampered entry hit: %q", got)
			}
			if inv := c.Stats().Invalidations; inv != 1 {
				t.Fatalf("tamper counted as %d invalidations, want 1", inv)
			}
			if _, err := os.Stat(c.entryPath(ka)); !os.IsNotExist(err) {
				t.Fatal("tampered entry not removed")
			}
			// Recompute path: the caller stores the fresh value and the
			// next lookup hits again.
			if err := c.Put(ka, tamperA); err != nil {
				t.Fatal(err)
			}
			if got, ok := c.Get(ka); !ok || !bytes.Equal(got, tamperA) {
				t.Fatalf("recomputed Get = %q, %v", got, ok)
			}
			if tc.name == "swap-entries" {
				// B's file now holds A's old bytes — also a swap victim.
				if _, ok := c.Get(kb); ok {
					t.Fatal("swapped entry B hit")
				}
			}
		})
	}
}

// TestCacheTamperMatrix runs the named tamper cases — flip one byte,
// truncate mid-record, truncate to nothing, swap two entries' files —
// plus a foreign garbage file and entries in the version-1 (ASCON-128)
// and version-2 (AES-128-GCM) layouts.
func TestCacheTamperMatrix(t *testing.T) {
	runTamperCases(t, []tamperCase{
		{"flip-byte", func(t *testing.T, pathA, _ string) {
			raw, err := os.ReadFile(pathA)
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)/2] ^= 0x01
			if err := os.WriteFile(pathA, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncate", func(t *testing.T, pathA, _ string) {
			raw, err := os.ReadFile(pathA)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(pathA, raw[:len(raw)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncate-to-zero", func(t *testing.T, pathA, _ string) {
			if err := os.WriteFile(pathA, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"swap-entries", func(t *testing.T, pathA, pathB string) {
			tmp := pathA + ".swap"
			for _, mv := range [][2]string{{pathA, tmp}, {pathB, pathA}, {tmp, pathB}} {
				if err := os.Rename(mv[0], mv[1]); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"garbage", func(t *testing.T, pathA, _ string) {
			if err := os.WriteFile(pathA, []byte("RILC\x01 not a sealed entry at all"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"v1-layout", func(t *testing.T, pathA, _ string) {
			// RILC, version 1, a 16-byte nonce, the sealed payload and a
			// 16-byte tag: what an ASCON-128 build wrote.
			v1 := append([]byte("RILC\x01"), bytes.Repeat([]byte{0x5a}, 16+secondsPrefixLen+len(tamperA)+16)...)
			if err := os.WriteFile(pathA, v1, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"v2-layout", func(t *testing.T, pathA, _ string) {
			// RILC, version 2, a 12-byte nonce, the sealed body and a
			// 16-byte tag: what an AES-128-GCM build wrote.
			v2 := append([]byte("RILC\x02"), bytes.Repeat([]byte{0x5a}, 12+secondsPrefixLen+len(tamperA)+16)...)
			if err := os.WriteFile(pathA, v2, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	})
}

// TestCacheSealRejects requires the entry check to reject a one-bit
// flip at every offset of a real entry file (header, checksum and body
// alike) and a truncation to every shorter length.
func TestCacheSealRejects(t *testing.T) {
	var cases []tamperCase
	for i := 0; i < tamperEntryLen; i++ {
		cases = append(cases, tamperCase{fmt.Sprintf("flip-bit-at-%d", i), func(t *testing.T, pathA, _ string) {
			rewriteEntry(t, pathA, func(raw []byte) []byte {
				if len(raw) != tamperEntryLen {
					t.Fatalf("entry has %d bytes, want %d", len(raw), tamperEntryLen)
				}
				raw[i] ^= 0x01
				return raw
			})
		}})
		cases = append(cases, tamperCase{fmt.Sprintf("truncate-to-%d", i), func(t *testing.T, pathA, _ string) {
			rewriteEntry(t, pathA, func(raw []byte) []byte { return raw[:i] })
		}})
	}
	runTamperCases(t, cases)
}

// TestCachePutCrash injects testutil.FaultyWriter faults at every
// byte budget: a torn entry write must fail the Put, leave no entry
// visible, and never corrupt later writes through the same cache.
func TestCachePutCrash(t *testing.T) {
	dir := t.TempDir()
	c := openTest(t, dir)
	k := testKey(t, "crash")
	payload := []byte(`{"big":"` + string(bytes.Repeat([]byte("x"), 100)) + `"}`)

	entrySize := headerLen + secondsPrefixLen + len(payload)
	defer func() { durable.NewSink = func(f *os.File) durable.Sink { return f } }()
	for budget := 0; budget < entrySize; budget++ {
		budget := budget
		durable.NewSink = func(f *os.File) durable.Sink { return testutil.NewFaultyWriter(f, budget) }
		if err := c.Put(k, payload); err == nil {
			t.Fatalf("budget %d: torn Put reported success", budget)
		}
		if _, ok := c.Get(k); ok {
			t.Fatalf("budget %d: torn entry became visible", budget)
		}
	}
	if c.Stats().PutErrors == 0 {
		t.Fatal("torn puts not counted")
	}
	// Restore the real sink: the same cache must recover fully.
	durable.NewSink = func(f *os.File) durable.Sink { return f }
	if err := c.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Get(k); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("post-crash Get = %q, %v", got, ok)
	}
	// A failed Put removes its own temp file; orphans only appear when
	// the whole process dies mid-write. Simulate one and check GC
	// sweeps it — but only after the in-flight-writer grace period
	// (fresh temps may belong to a live Put staging its file before the
	// rename lock).
	orphan := filepath.Join(dir, "entries", "ab", ".put-orphan.tmp")
	if err := os.MkdirAll(filepath.Dir(orphan), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(orphan, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GC(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); err != nil {
		t.Fatal("GC swept a fresh temp within the grace period")
	}
	old := time.Now().Add(-2 * tmpGracePeriod)
	if err := os.Chtimes(orphan, old, old); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GC(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("stale orphaned temp file survived GC")
	}
}

// TestCacheGCEvictsLRU fills the cache past a tiny cap and checks the
// least-recently-used entries go first — with "used" including Get's
// timestamp refresh.
func TestCacheGCEvictsLRU(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("p"), 200)
	entryBytes := headerLen + secondsPrefixLen + len(payload)
	c, err := Open(dir, Options{MaxBytes: int64(3 * entryBytes)})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]Key, 5)
	for i := range keys {
		keys[i] = testKey(t, fmt.Sprintf("gc-%d", i))
		if err := c.Put(keys[i], payload); err != nil {
			t.Fatal(err)
		}
		// Distinct mtimes so LRU order is unambiguous even on coarse
		// filesystem clocks.
		stamp := time.Now().Add(time.Duration(i-10) * time.Hour)
		if err := os.Chtimes(c.entryPath(keys[i]), stamp, stamp); err != nil {
			t.Fatal(err)
		}
	}
	// Touch the oldest entry: a hit must rescue it from eviction.
	if _, ok := c.Get(keys[0]); !ok {
		t.Fatal("setup Get missed")
	}
	removed, err := c.GC()
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 {
		t.Fatalf("GC evicted %d entries, want 2", removed)
	}
	if c.Stats().Evictions != 2 {
		t.Fatalf("evictions counter = %d", c.Stats().Evictions)
	}
	for i, want := range []bool{true, false, false, true, true} {
		_, ok := c.Get(keys[i])
		if ok != want {
			t.Fatalf("after GC entry %d present=%v, want %v", i, ok, want)
		}
	}
	// Under the cap: GC is a no-op.
	if removed, err := c.GC(); err != nil || removed != 0 {
		t.Fatalf("second GC = %d, %v", removed, err)
	}
}

// TestCacheRefreshAge: a hit leaves the mtime of an entry younger than
// refreshAge alone, so repeated hits write no inode, and moves an older
// entry's mtime to now, so GC's LRU order holds to within refreshAge.
func TestCacheRefreshAge(t *testing.T) {
	c := openTest(t, t.TempDir())
	k := testKey(t, "refresh")
	if err := c.Put(k, []byte("p")); err != nil {
		t.Fatal(err)
	}
	path := c.entryPath(k)
	hitAged := func(age time.Duration) (stamp, after time.Time) {
		t.Helper()
		stamp = time.Now().Add(-age).Truncate(time.Second)
		if err := os.Chtimes(path, stamp, stamp); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.Get(k); !ok {
			t.Fatal("Get missed")
		}
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return stamp, info.ModTime()
	}
	for _, age := range []time.Duration{0, refreshAge / 2, refreshAge - 5*time.Second} {
		if stamp, after := hitAged(age); !after.Equal(stamp) {
			t.Errorf("a hit on an entry %v old moved its mtime from %v to %v", age, stamp, after)
		}
	}
	for _, age := range []time.Duration{refreshAge + 5*time.Second, 10 * time.Hour} {
		before := time.Now().Add(-time.Second) // room for a coarse filesystem clock
		if stamp, after := hitAged(age); after.Before(before) {
			t.Errorf("a hit on an entry %v old left its mtime at %v (stamped %v)", age, after, stamp)
		}
	}
	if s := c.Stats(); s.Hits != 5 || s.Misses != 0 || s.Invalidations != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestCacheGetCounts: a missing entry is a miss, a damaged one a miss
// and an invalidation that removes it, and neither touches the other
// counters.
func TestCacheGetCounts(t *testing.T) {
	c := openTest(t, t.TempDir())
	k := testKey(t, "counts")
	path := c.entryPath(k)
	want := Stats{}
	check := func(what string) {
		t.Helper()
		if _, ok := c.Get(k); ok {
			t.Fatalf("%s: Get hit", what)
		}
		if s := c.Stats(); s != want {
			t.Fatalf("%s: stats = %+v, want %+v", what, s, want)
		}
	}
	want.Misses++
	check("missing")
	for _, damage := range []struct {
		name string
		edit func(raw []byte) []byte
	}{
		{"truncated", func(raw []byte) []byte { return raw[:len(raw)-1] }},
		{"empty", func([]byte) []byte { return nil }},
		{"tampered", func(raw []byte) []byte { raw[len(raw)-1] ^= 0x80; return raw }},
	} {
		if err := c.Put(k, []byte("payload")); err != nil {
			t.Fatal(err)
		}
		want.Puts++
		rewriteEntry(t, path, damage.edit)
		want.Misses++
		want.Invalidations++
		check(damage.name)
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("%s: damaged entry not removed", damage.name)
		}
	}
	// A directory where the entry should be cannot be read: a plain miss.
	if err := os.MkdirAll(path, 0o755); err != nil {
		t.Fatal(err)
	}
	want.Misses++
	check("directory")
}

// TestCacheGetClosesDescriptors: GetTimed closes every descriptor it
// opens, whether the lookup hits, misses, invalidates a damaged entry or
// finds a directory at the entry path.
func TestCacheGetClosesDescriptors(t *testing.T) {
	openFDs := func() int {
		t.Helper()
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("cannot count open descriptors: %v", err)
		}
		return len(fds)
	}
	c := openTest(t, t.TempDir())
	hit, miss, damaged, dir := testKey(t, "fd-hit"), testKey(t, "fd-miss"), testKey(t, "fd-damaged"), testKey(t, "fd-dir")
	for _, k := range []Key{hit, damaged} {
		if err := c.Put(k, []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(c.entryPath(damaged))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(c.entryPath(dir), 0o755); err != nil {
		t.Fatal(err)
	}
	openFDs() // the first count may set up the runtime's poller
	before := openFDs()
	const rounds = 250
	for i := 0; i < rounds; i++ {
		if err := os.WriteFile(c.entryPath(damaged), raw[:len(raw)-1], 0o644); err != nil {
			t.Fatal(err)
		}
		for _, k := range []Key{hit, miss, damaged, dir} {
			if _, _, ok := c.GetTimed(k); ok != (k == hit) {
				t.Fatalf("round %d: GetTimed(%s) hit = %v", i, k, ok)
			}
		}
	}
	if after := openFDs(); after != before {
		t.Errorf("%d open descriptors before %d lookups, %d after", before, 4*rounds, after)
	}
	if s := c.Stats(); s.Hits != rounds || s.Misses != 3*rounds || s.Invalidations != rounds {
		t.Errorf("stats = %+v, want %d hits, %d misses, %d invalidations", s, rounds, 3*rounds, rounds)
	}
}

// TestCacheHitAllocs pins the allocations of a warm hit: the entry
// path, its NUL-terminated copy for open and the bytes read make 3.
func TestCacheHitAllocs(t *testing.T) {
	c := openTest(t, t.TempDir())
	k := testKey(t, "allocs")
	if err := c.PutTimed(k, bytes.Repeat([]byte("p"), 400), 1.5); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, ok := c.GetTimed(k); !ok {
			t.Fatal("warm GetTimed missed")
		}
	})
	t.Logf("allocations per warm hit: %.1f", allocs)
	if allocs > 5 {
		t.Errorf("a warm hit allocates %.1f times, want at most 5", allocs)
	}
}

func TestCacheTimedRoundTrip(t *testing.T) {
	c, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(t, "timed")
	if err := c.PutTimed(k, []byte("payload"), 12.75); err != nil {
		t.Fatal(err)
	}
	got, secs, ok := c.GetTimed(k)
	if !ok || string(got) != "payload" {
		t.Fatalf("GetTimed = %q, %v; want payload hit", got, ok)
	}
	if secs != 12.75 {
		t.Fatalf("GetTimed seconds = %v, want 12.75", secs)
	}
	// The plain API round-trips through the same entries: Put records
	// zero seconds, Get drops them.
	if raw, ok := c.Get(k); !ok || string(raw) != "payload" {
		t.Fatalf("Get = %q, %v; want payload hit", raw, ok)
	}
	k2 := testKey(t, "untimed")
	if err := c.Put(k2, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, secs, ok := c.GetTimed(k2); !ok || secs != 0 {
		t.Fatalf("GetTimed on Put entry = %v seconds, %v; want 0, hit", secs, ok)
	}
	// Nonsense timings are clamped to zero rather than poisoning
	// downstream accounting.
	k3 := testKey(t, "negative")
	if err := c.PutTimed(k3, []byte("y"), -3); err != nil {
		t.Fatal(err)
	}
	if _, secs, ok := c.GetTimed(k3); !ok || secs != 0 {
		t.Fatalf("GetTimed on negative-seconds entry = %v, %v; want 0, hit", secs, ok)
	}
}
