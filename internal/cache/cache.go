// Package cache is a content-addressed, authenticated result cache
// for sweep jobs and report-table cells. Entries are keyed by a
// canonical SHA-256 hash of everything that determines a result
// (parsed netlist canonical form, lock options, seed, attack options,
// cache schema version) and stored encrypted-at-rest with AES-128-GCM,
// so a tampered, truncated or swapped entry fails authentication and
// is transparently recomputed instead of trusted. The design follows
// garble's build-cache architecture: hash the full input closure,
// authenticate the payload, version the schema inside the key so
// format changes invalidate by construction.
package cache

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/durable"
)

// On-disk layout of a cache directory:
//
//	<dir>/key            master AEAD key (16 random bytes, 0600)
//	<dir>/lock           flock file serializing GC against writers
//	<dir>/entries/ab/<64-hex-key>   one authenticated entry per key
//
// Every entry file is magic || format version || nonce || AES-128-GCM
// sealed payload and tag, with the magic, version and the entry's own
// cache key bound in as associated data. Binding the key means a byte
// flip, a truncation, *and* two entries swapped wholesale between
// files all fail authentication — a swapped file decrypts fine under
// the master key, but its associated data no longer matches the name
// it sits under. Failed authentication is never an error: the entry
// is dropped, counted as an invalidation, and the caller recomputes.
//
// Writers go through durable.WriteFile (temp file, fsync, rename,
// directory fsync) while holding a shared flock. Eviction (size-capped
// LRU on the entry files' modification times, which Get refreshes on
// every hit) takes the flock exclusively, so GC never observes a
// half-written entry and never races another GC.

const (
	entryMagic = "RILC"
	// entryVersion versions the sealed container: 1 was ASCON-128 with
	// a 16-byte nonce, 2 is AES-128-GCM with a 12-byte nonce. An entry
	// of another version fails the header check and is recomputed.
	entryVersion = 2
	// keyLen, nonceLen and tagLen are AES-128-GCM's sizes.
	keyLen   = 16
	nonceLen = 12
	tagLen   = 16
	// DefaultMaxBytes is the GC size cap when Options.MaxBytes is 0.
	DefaultMaxBytes = 1 << 30
	// tmpGracePeriod is how old an orphaned .tmp file must be before
	// GC sweeps it; younger temps may belong to an in-flight Put of an
	// older build, which staged its temp file before taking the lock.
	tmpGracePeriod = 10 * time.Minute
)

// Options configures a cache directory.
type Options struct {
	// MaxBytes caps the total size of all entries; GC evicts
	// least-recently-used entries beyond it (0 = DefaultMaxBytes).
	MaxBytes int64
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Invalidations int64 `json:"invalidations"` // entries that failed authentication or decoding
	Puts          int64 `json:"puts"`
	PutErrors     int64 `json:"put_errors"`
	Evictions     int64 `json:"evictions"`
}

func (s Stats) String() string {
	return fmt.Sprintf("%d hits, %d misses (%d invalidated), %d stores (%d failed), %d evicted",
		s.Hits, s.Misses, s.Invalidations, s.Puts, s.PutErrors, s.Evictions)
}

// Cache is a content-addressed, authenticated result store rooted at
// one directory. Safe for concurrent use by multiple goroutines and
// cooperating processes sharing the directory.
type Cache struct {
	dir      string
	maxBytes int64
	aeadKey  [keyLen]byte
	aead     cipher.AEAD // AES-128-GCM under aeadKey; safe for concurrent use

	hits, misses, invalidations atomic.Int64
	puts, putErrors, evictions  atomic.Int64
}

// Open opens (creating if needed) a cache directory. The master AEAD
// key is generated on first use and persists with the directory;
// deleting the directory discards both the key and every entry.
func Open(dir string, opt Options) (*Cache, error) {
	if err := os.MkdirAll(filepath.Join(dir, "entries"), 0o755); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	c := &Cache{dir: dir, maxBytes: opt.MaxBytes}
	if c.maxBytes <= 0 {
		c.maxBytes = DefaultMaxBytes
	}
	if err := c.loadOrCreateKey(); err != nil {
		return nil, err
	}
	block, err := aes.NewCipher(c.aeadKey[:])
	if err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	if c.aead, err = cipher.NewGCM(block); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	return c, nil
}

// Stats returns a snapshot of the counters (process-local, since
// Open; they do not aggregate across processes).
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Invalidations: c.invalidations.Load(),
		Puts:          c.puts.Load(),
		PutErrors:     c.putErrors.Load(),
		Evictions:     c.evictions.Load(),
	}
}

// keyPath is the master-key file, lockPath the GC/writer flock file.
func (c *Cache) keyPath() string  { return filepath.Join(c.dir, "key") }
func (c *Cache) lockPath() string { return filepath.Join(c.dir, "lock") }

// entryPath maps a cache key to its entry file, sharded by the first
// hex byte to keep directories small.
func (c *Cache) entryPath(k Key) string {
	hex := k.String()
	return filepath.Join(c.dir, "entries", hex[:2], hex)
}

// loadOrCreateKey reads the master key, generating one under an
// exclusive lock on first use so concurrent opens agree on a single
// key.
func (c *Cache) loadOrCreateKey() error {
	read := func() (bool, error) {
		raw, err := os.ReadFile(c.keyPath())
		if errors.Is(err, fs.ErrNotExist) {
			return false, nil
		}
		if err != nil {
			return false, fmt.Errorf("cache: %w", err)
		}
		if len(raw) != keyLen {
			return false, fmt.Errorf("cache: master key file %s has %d bytes, want %d", c.keyPath(), len(raw), keyLen)
		}
		copy(c.aeadKey[:], raw)
		return true, nil
	}
	if ok, err := read(); ok || err != nil {
		return err
	}
	lock, err := c.flock(syscall.LOCK_EX)
	if err != nil {
		return err
	}
	defer func() { _ = unflock(lock) }() // key already durable or error already returned
	// Re-check under the lock: another opener may have won the race.
	if ok, err := read(); ok || err != nil {
		return err
	}
	var key [keyLen]byte
	if _, err := rand.Read(key[:]); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	if err := durable.WriteFile(c.keyPath(), key[:]); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	c.aeadKey = key
	return nil
}

// flock opens the lock file and takes a flock of the given type
// (syscall.LOCK_SH or syscall.LOCK_EX), blocking until granted.
func (c *Cache) flock(how int) (*os.File, error) {
	f, err := os.OpenFile(c.lockPath(), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), how); err != nil {
		return nil, errors.Join(fmt.Errorf("cache: flock: %w", err), f.Close())
	}
	return f, nil
}

// unflock releases a flock and closes its file.
func unflock(f *os.File) error {
	return errors.Join(syscall.Flock(int(f.Fd()), syscall.LOCK_UN), f.Close())
}

// associatedData binds an entry to its own key, so entries swapped
// between files fail authentication.
func associatedData(k Key) []byte {
	ad := make([]byte, 0, len(entryMagic)+1+len(k.sum))
	ad = append(ad, entryMagic...)
	ad = append(ad, entryVersion)
	ad = append(ad, k.sum[:]...)
	return ad
}

// Get returns the cached payload for a key. Any failure — missing
// entry, bad header, failed authentication — is a miss; authenticated
// entries additionally refresh their LRU timestamp. Get never returns
// tampered bytes and never fails the caller: a damaged entry is
// removed, counted under Invalidations, and reported as a miss so the
// caller recomputes.
func (c *Cache) Get(k Key) ([]byte, bool) {
	payload, _, ok := c.GetTimed(k)
	return payload, ok
}

// GetTimed is Get plus the wall-clock seconds the original computation
// took, as recorded by PutTimed. Consumers that report runtimes (the
// sweep runner's Result.Seconds, the report tables' warm cells) restore
// the original timing instead of reporting a 0-second cache hit.
func (c *Cache) GetTimed(k Key) ([]byte, float64, bool) {
	if !k.Valid() {
		return nil, 0, false
	}
	path := c.entryPath(k)
	raw, err := os.ReadFile(path)
	if err != nil {
		c.misses.Add(1)
		return nil, 0, false
	}
	plain, ok := c.decode(k, raw)
	// Every schema-2 payload is seconds prefix + caller bytes; anything
	// shorter is damage (the prefix is inside the sealed payload, so
	// this only triggers on a bug or a forged master key).
	if !ok || len(plain) < secondsPrefixLen {
		// Tampered, truncated or foreign bytes: drop the entry so the
		// recompute's Put replaces it, and report the authentication
		// failure separately from a plain miss.
		c.invalidations.Add(1)
		c.misses.Add(1)
		if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
			c.putErrors.Add(1)
		}
		return nil, 0, false
	}
	seconds := math.Float64frombits(binary.BigEndian.Uint64(plain[:secondsPrefixLen]))
	if math.IsNaN(seconds) || math.IsInf(seconds, 0) || seconds < 0 {
		seconds = 0
	}
	c.hits.Add(1)
	now := time.Now()
	// Best-effort LRU refresh; a read-only cache dir only weakens
	// eviction order, never correctness.
	_ = os.Chtimes(path, now, now)
	return plain[secondsPrefixLen:], seconds, true
}

// decode parses and authenticates one entry file.
func (c *Cache) decode(k Key, raw []byte) ([]byte, bool) {
	hdr := len(entryMagic) + 1 + nonceLen
	if len(raw) < hdr+tagLen {
		return nil, false
	}
	if string(raw[:len(entryMagic)]) != entryMagic || raw[len(entryMagic)] != entryVersion {
		return nil, false
	}
	nonce := raw[len(entryMagic)+1 : hdr]
	plain, err := c.aead.Open(nil, nonce, raw[hdr:], associatedData(k))
	return plain, err == nil
}

// Put stores a payload under a key, replacing any existing entry. The
// write is atomic and durable (durable.WriteFile under a shared lock):
// concurrent readers and the GC only ever observe complete entries,
// and a crash mid-Put leaves at worst an orphaned temp file that a
// later GC sweeps.
func (c *Cache) Put(k Key, payload []byte) error {
	return c.PutTimed(k, payload, 0)
}

// PutTimed is Put plus the wall-clock seconds the computation that
// produced the payload took; GetTimed returns them alongside the
// payload so cache hits keep their runtime accounting. The seconds
// live inside the sealed payload, covered by the same authentication
// as the result itself.
func (c *Cache) PutTimed(k Key, payload []byte, seconds float64) error {
	err := c.put(k, payload, seconds)
	if err != nil {
		c.putErrors.Add(1)
		return err
	}
	c.puts.Add(1)
	return nil
}

// secondsPrefixLen is the size of the runtime prefix inside every
// sealed payload: one big-endian IEEE-754 float64.
const secondsPrefixLen = 8

func (c *Cache) put(k Key, payload []byte, seconds float64) error {
	if !k.Valid() {
		return fmt.Errorf("cache: Put with invalid key")
	}
	if math.IsNaN(seconds) || math.IsInf(seconds, 0) || seconds < 0 {
		seconds = 0
	}
	plain := make([]byte, secondsPrefixLen+len(payload))
	binary.BigEndian.PutUint64(plain, math.Float64bits(seconds))
	copy(plain[secondsPrefixLen:], payload)
	payload = plain
	var nonce [nonceLen]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	buf := make([]byte, 0, len(entryMagic)+1+nonceLen+len(payload)+tagLen)
	buf = append(buf, entryMagic...)
	buf = append(buf, entryVersion)
	buf = append(buf, nonce[:]...)
	buf = c.aead.Seal(buf, nonce[:], payload, associatedData(k))

	path := c.entryPath(k)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	// Write under a shared lock: many writers may land concurrently,
	// but never during an exclusive GC sweep.
	lock, err := c.flock(syscall.LOCK_SH)
	if err != nil {
		return err
	}
	if err := durable.WriteFile(path, buf); err != nil {
		return errors.Join(fmt.Errorf("cache: %w", err), unflock(lock))
	}
	return unflock(lock)
}

// GC enforces the size cap: while the entries exceed MaxBytes, the
// least-recently-used entries (oldest modification time — Get
// refreshes it on every hit) are evicted, under an exclusive lock so
// eviction never races writers' renames or another GC. Orphaned temp
// files from crashed writers are always swept. Returns the number of
// entries evicted.
func (c *Cache) GC() (int, error) {
	lock, err := c.flock(syscall.LOCK_EX)
	if err != nil {
		return 0, err
	}
	removed, err := c.gcLocked()
	return removed, errors.Join(err, unflock(lock))
}

type entryInfo struct {
	path  string
	size  int64
	mtime time.Time
}

func (c *Cache) gcLocked() (int, error) {
	var entries []entryInfo
	var total int64
	root := filepath.Join(c.dir, "entries")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		if filepath.Ext(path) == ".tmp" {
			// A crashed writer's leftover. Writers of an older build
			// staged their temp file *before* taking the shared lock, so
			// a fresh temp may belong to an in-flight Put — only sweep
			// temps old enough that no live writer can still own them.
			if time.Since(info.ModTime()) > tmpGracePeriod {
				return os.Remove(path)
			}
			return nil
		}
		entries = append(entries, entryInfo{path: path, size: info.Size(), mtime: info.ModTime()})
		total += info.Size()
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("cache: gc: %w", err)
	}
	if total <= c.maxBytes {
		return 0, nil
	}
	sort.Slice(entries, func(i, j int) bool {
		if !entries[i].mtime.Equal(entries[j].mtime) {
			return entries[i].mtime.Before(entries[j].mtime)
		}
		return entries[i].path < entries[j].path // stable order for equal stamps
	})
	removed := 0
	for _, e := range entries {
		if total <= c.maxBytes {
			break
		}
		if err := os.Remove(e.path); err != nil {
			return removed, fmt.Errorf("cache: gc: %w", err)
		}
		total -= e.size
		removed++
	}
	c.evictions.Add(int64(removed))
	return removed, nil
}
