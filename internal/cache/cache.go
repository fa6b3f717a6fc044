// Package cache is a content-addressed, checksummed result cache for
// sweep jobs and report-table cells. Entries are keyed by a canonical
// SHA-256 hash of everything that determines a result (parsed netlist
// canonical form, lock options, seed, attack options, cache schema
// version) and carry a SHA-256 checksum over their own key and body,
// so a damaged, truncated or swapped entry fails the check and is
// transparently recomputed instead of trusted. The design follows
// garble's build-cache architecture: hash the full input closure,
// check the payload, version the schema inside the key so format
// changes invalidate by construction. A hit takes no lock and reads
// its entry in four system calls on a raw descriptor.
package cache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
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
//	<dir>/lock           flock file serializing GC against writers
//	<dir>/entries/ab/<64-hex-key>   one checksummed entry per key
//
// Every entry file is magic || format version || checksum || body. The
// body is the 8-byte seconds prefix followed by the payload, and the
// checksum is SHA-256(magic || version || the entry's own cache key ||
// body). Summing the key in means a byte flip, a truncation, *and* two
// entries swapped wholesale between files all fail the check — a
// swapped file is intact, but it was summed under another key than
// the name it sits under. A failed check is never an error: the entry
// is dropped, counted as an invalidation, and the caller recomputes.
// The checksum is unkeyed: entries hold results the same user
// computed, and a key kept in the directory beside them would not stop
// anyone who can rewrite them.
//
// Writers go through durable.WriteFile (temp file, fsync, rename,
// directory fsync) while holding a shared flock. The rename means a
// reader, which takes no lock, sees a whole entry or none. Eviction
// (size-capped LRU on the entry files' modification times, which a hit
// refreshes once they are older than refreshAge) takes the flock
// exclusively, so GC never observes a half-written entry and never
// races another GC.

const (
	entryMagic = "RILC"
	// entryVersion versions the entry container: 1 (ASCON-128) and 2
	// (AES-128-GCM) sealed the body under a master key, 3 checksums it.
	// An entry of another version fails the header check and is
	// recomputed.
	entryVersion = 3
	// headerLen is the magic, the version byte and the checksum.
	headerLen = len(entryMagic) + 1 + sha256.Size
	// DefaultMaxBytes is the GC size cap when Options.MaxBytes is 0.
	DefaultMaxBytes = 1 << 30
	// refreshAge is how old an entry's modification time must be before
	// a hit rewrites it. GC evicts by that time, so its LRU order holds
	// to within this age, and an entry hit again and again costs one
	// inode write a minute rather than one per hit.
	refreshAge = time.Minute
	// tmpGracePeriod is how old an orphaned .tmp file must be before
	// GC sweeps it; younger temps may belong to an in-flight Put of an
	// older build, which staged its temp file before taking the lock.
	tmpGracePeriod = 10 * time.Minute
)

// entryHeader opens every entry file: the magic and the version byte.
var entryHeader = append([]byte(entryMagic), entryVersion)

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
	Invalidations int64 `json:"invalidations"` // entries that failed their header or checksum check
	Puts          int64 `json:"puts"`
	PutErrors     int64 `json:"put_errors"`
	Evictions     int64 `json:"evictions"`
}

func (s Stats) String() string {
	return fmt.Sprintf("%d hits, %d misses (%d invalidated), %d stores (%d failed), %d evicted",
		s.Hits, s.Misses, s.Invalidations, s.Puts, s.PutErrors, s.Evictions)
}

// Cache is a content-addressed, checksummed result store rooted at one
// directory. Safe for concurrent use by multiple goroutines and
// cooperating processes sharing the directory.
type Cache struct {
	dir      string
	entries  string // dir/entries/, the prefix of every entry path
	maxBytes int64

	hits, misses, invalidations atomic.Int64
	puts, putErrors, evictions  atomic.Int64
}

// Open opens (creating if needed) a cache directory. It ignores a
// `key` file that a build sealing its entries left there.
func Open(dir string, opt Options) (*Cache, error) {
	entries := filepath.Join(dir, "entries")
	if err := os.MkdirAll(entries, 0o755); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	c := &Cache{dir: dir, entries: entries + string(filepath.Separator), maxBytes: opt.MaxBytes}
	if c.maxBytes <= 0 {
		c.maxBytes = DefaultMaxBytes
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

// lockPath is the GC/writer flock file.
func (c *Cache) lockPath() string { return filepath.Join(c.dir, "lock") }

// entryPath maps a cache key to its entry file, sharded by the first
// hex byte to keep directories small. The path has the bytes
// filepath.Join(dir, "entries", hex[:2], hex) gives, built on the
// prefix Open joined, with nothing to clean and one allocation.
func (c *Cache) entryPath(k Key) string {
	var name [2 * sha256.Size]byte
	hex.Encode(name[:], k.sum[:])
	return c.entries + string(name[:2]) + string(filepath.Separator) + string(name[:])
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

// checksum is SHA-256 over the entry header, the entry's own cache key
// and its body.
func checksum(k Key, body []byte) (sum [sha256.Size]byte) {
	h := sha256.New()
	h.Write(entryHeader)
	h.Write(k.sum[:])
	h.Write(body)
	h.Sum(sum[:0])
	return sum
}

// Get returns the cached payload for a key. Any failure — missing
// entry, bad header, failed checksum — is a miss; an intact entry
// whose LRU timestamp is older than refreshAge gets it refreshed. Get
// never returns bytes that fail the checksum and never fails the
// caller: a damaged entry is removed, counted under Invalidations, and
// reported as a miss so the caller recomputes.
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
	raw, mtime, err := readEntry(path)
	if err != nil {
		c.misses.Add(1)
		return nil, 0, false
	}
	body, ok := decode(k, raw)
	if !ok {
		// Damaged, truncated or foreign bytes: drop the entry so the
		// recompute's Put replaces it, and report the failed check
		// separately from a plain miss.
		c.invalidations.Add(1)
		c.misses.Add(1)
		if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
			c.putErrors.Add(1)
		}
		return nil, 0, false
	}
	seconds := math.Float64frombits(binary.BigEndian.Uint64(body[:secondsPrefixLen]))
	if math.IsNaN(seconds) || math.IsInf(seconds, 0) || seconds < 0 {
		seconds = 0
	}
	c.hits.Add(1)
	if now := time.Now(); now.Sub(mtime) > refreshAge {
		// Best-effort LRU refresh; a read-only cache dir only weakens
		// eviction order, never correctness.
		_ = os.Chtimes(path, now, now)
	}
	return body[secondsPrefixLen:], seconds, true
}

// readEntry reads an entry file and its modification time in four
// system calls on a raw descriptor: open, fstat, read and close. It
// makes no *os.File, so a hit pays for none of what os.Open does for a
// regular file too: no O_NONBLOCK toggling, no netpoller registration
// and no finalizer. Open, fstat and read are retried on EINTR, as
// package os retries them. A file shorter than its fstat size fails
// with io.ErrUnexpectedEOF, as io.ReadFull failed it, and a directory
// with EISDIR, whatever size the filesystem gives it. Every error is
// an *fs.PathError, and every path closes the descriptor.
func readEntry(path string) ([]byte, time.Time, error) {
	fd, err := syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	for err == syscall.EINTR {
		fd, err = syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	}
	if err != nil {
		return nil, time.Time{}, &fs.PathError{Op: "open", Path: path, Err: err}
	}
	// The descriptor is read-only: closing it cannot lose data, so its
	// error says nothing about the bytes read.
	defer syscall.Close(fd)
	var st syscall.Stat_t
	err = syscall.Fstat(fd, &st)
	for err == syscall.EINTR {
		err = syscall.Fstat(fd, &st)
	}
	if err != nil {
		return nil, time.Time{}, &fs.PathError{Op: "stat", Path: path, Err: err}
	}
	if st.Mode&syscall.S_IFMT == syscall.S_IFDIR {
		return nil, time.Time{}, &fs.PathError{Op: "read", Path: path, Err: syscall.EISDIR}
	}
	raw := make([]byte, st.Size)
	for n := 0; n < len(raw); {
		m, err := syscall.Read(fd, raw[n:])
		switch {
		case err == syscall.EINTR:
		case err != nil:
			return nil, time.Time{}, &fs.PathError{Op: "read", Path: path, Err: err}
		case m == 0:
			return nil, time.Time{}, &fs.PathError{Op: "read", Path: path, Err: io.ErrUnexpectedEOF}
		default:
			n += m
		}
	}
	return raw, statMtime(&st), nil
}

// decode checks one entry file's header and checksum and returns its
// body, which is at least the seconds prefix long.
func decode(k Key, raw []byte) ([]byte, bool) {
	if len(raw) < headerLen+secondsPrefixLen || !bytes.Equal(raw[:len(entryHeader)], entryHeader) {
		return nil, false
	}
	body := raw[headerLen:]
	sum := checksum(k, body)
	return body, bytes.Equal(sum[:], raw[len(entryHeader):headerLen])
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
// live in the entry body, covered by the same checksum as the result
// itself.
func (c *Cache) PutTimed(k Key, payload []byte, seconds float64) error {
	err := c.put(k, payload, seconds)
	if err != nil {
		c.putErrors.Add(1)
		return err
	}
	c.puts.Add(1)
	return nil
}

// secondsPrefixLen is the size of the runtime prefix that opens every
// entry body: one big-endian IEEE-754 float64.
const secondsPrefixLen = 8

func (c *Cache) put(k Key, payload []byte, seconds float64) error {
	if !k.Valid() {
		return fmt.Errorf("cache: Put with invalid key")
	}
	if math.IsNaN(seconds) || math.IsInf(seconds, 0) || seconds < 0 {
		seconds = 0
	}
	buf := make([]byte, headerLen+secondsPrefixLen+len(payload))
	copy(buf, entryHeader)
	body := buf[headerLen:]
	binary.BigEndian.PutUint64(body, math.Float64bits(seconds))
	copy(body[secondsPrefixLen:], payload)
	sum := checksum(k, body)
	copy(buf[len(entryHeader):], sum[:])

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
// least-recently-used entries (oldest modification time — a hit
// refreshes it once it is older than refreshAge) are evicted, under an
// exclusive lock so eviction never races writers' renames or another
// GC. Orphaned temp files from crashed writers are always swept.
// Returns the number of entries evicted.
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
