package cache

import (
	"flag"
	"fmt"
	"io"
)

// Flags is the shared command-line surface of the result cache. The
// CLIs (rilbench, satattack, locker) all speak the same dialect:
//
//	-cache-dir DIR   enable the cache rooted at DIR
//	-cache-max N     size cap in bytes for GC eviction
type Flags struct {
	Dir      string
	MaxBytes int64
}

// Register installs the cache flags on fs (flag.CommandLine in the
// CLIs).
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Dir, "cache-dir", "",
		"content-addressed result cache directory (empty = caching off)")
	fs.Int64Var(&f.MaxBytes, "cache-max", DefaultMaxBytes,
		"result cache size cap in bytes (LRU eviction on GC)")
}

// Open opens the configured cache. It returns (nil, nil) when caching
// is off — callers pass the nil *Cache straight through; every
// consumer treats nil as "no cache".
func (f *Flags) Open() (*Cache, error) {
	if f.Dir == "" {
		return nil, nil
	}
	return Open(f.Dir, Options{MaxBytes: f.MaxBytes})
}

// Close runs end-of-process cache maintenance and reports the run's
// hit/miss/invalidation counters: GC enforces the size cap, then one
// summary line goes to w tagged with the program name. A nil cache is
// a no-op, so CLIs can call this unconditionally.
func (f *Flags) Close(c *Cache, w io.Writer, prog string) error {
	if c == nil {
		return nil
	}
	_, err := c.GC()
	fmt.Fprintf(w, "%s: cache: %s\n", prog, c.Stats())
	return err
}
