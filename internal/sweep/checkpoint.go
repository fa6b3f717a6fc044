package sweep

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/durable"
)

// Sweep checkpointing: a sweep directory holds one manifest
// (manifest.json) and one private checkpoint file per job (for jobs
// that checkpoint their own progress, e.g. SAT-attack DIP journals via
// Checkpoint.JobFile). The manifest is a framed log (internal/durable):
// a header line, then one line per job completion, appended and
// fsynced before Record returns, so a completion costs the same
// however many came before. A later line for a name supersedes an
// earlier one, and the log is never compacted. On resume, jobs
// recorded "done" are skipped — their recorded results are returned
// without re-running — while killed or failed jobs run again and pick
// up their own partial checkpoint files. A torn last line, the mark of
// a crash mid-append, is cut off; any other damage, or another
// version, degrades to a fresh sweep (Degraded reports it) rather than
// failing.

// ManifestVersion is the current manifest format version. Loading a
// manifest with a different version degrades to a fresh sweep.
//
// Version history:
//
//	1: one indented JSON document, rewritten whole per completion
//	2: a framed log, one line appended per completion
const ManifestVersion = 2

// ManifestEntry is one job's recorded outcome.
type ManifestEntry struct {
	Name    string          `json:"name"`
	Status  string          `json:"status"` // "done" | "failed"
	Value   json.RawMessage `json:"value,omitempty"`
	Error   string          `json:"error,omitempty"`
	Seconds float64         `json:"seconds"`
}

// manifestHeader is the manifest's first line.
type manifestHeader struct {
	Version int `json:"version"`
}

// Checkpoint persists sweep progress in a directory. Safe for
// concurrent use by sweep workers.
type Checkpoint struct {
	dir      string
	mu       sync.Mutex
	entries  map[string]*ManifestEntry
	size     int64 // bytes of valid manifest log; 0 starts a new log
	degraded bool
}

// ManifestPath returns the manifest file path inside a checkpoint dir.
func ManifestPath(dir string) string { return filepath.Join(dir, "manifest.json") }

// NewCheckpoint creates (or wipes the manifest of) a checkpoint
// directory for a fresh sweep.
func NewCheckpoint(dir string) (*Checkpoint, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := os.Remove(ManifestPath(dir)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	return &Checkpoint{dir: dir, entries: map[string]*ManifestEntry{}}, nil
}

// ResumeCheckpoint opens a checkpoint directory for a resumed sweep,
// loading the manifest and cutting off a torn last line. A missing
// manifest is a normal fresh start; a corrupt or wrong-version
// manifest degrades to a fresh start (Degraded reports it) instead of
// erroring, so a damaged checkpoint can never block re-running the
// sweep. The first Record after a degraded resume starts a new log.
func ResumeCheckpoint(dir string) (*Checkpoint, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c := &Checkpoint{dir: dir, entries: map[string]*ManifestEntry{}}
	f, err := os.Open(ManifestPath(dir))
	if errors.Is(err, os.ErrNotExist) {
		return c, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var entries []*ManifestEntry
	size, torn, err := durable.ReadLog(f, func(line int, rec []byte) error {
		if line == 1 {
			var h manifestHeader
			if err := json.Unmarshal(rec, &h); err != nil {
				return err
			}
			if h.Version != ManifestVersion {
				return fmt.Errorf("manifest version %d, want %d", h.Version, ManifestVersion)
			}
			return nil
		}
		e := &ManifestEntry{}
		if err := json.Unmarshal(rec, e); err != nil {
			return err
		}
		entries = append(entries, e)
		return nil
	})
	var bad *durable.LineError
	if err != nil && !errors.As(err, &bad) {
		return nil, err
	}
	// A torn append explains a bad last line only: a bad line before
	// it, a log with no valid header or an entry written invalid mean
	// the file is not this version's manifest.
	if bad != nil || (torn && size == 0) {
		c.degraded = true
		return c, nil
	}
	for _, e := range entries {
		if e.Name == "" || (e.Status != "done" && e.Status != "failed") {
			c.degraded = true
			return c, nil
		}
	}
	if torn {
		if err := os.Truncate(ManifestPath(dir), size); err != nil {
			return nil, err
		}
	}
	for _, e := range entries {
		c.entries[e.Name] = e // a later line supersedes an earlier one
	}
	c.size = size
	return c, nil
}

// Dir returns the checkpoint directory.
func (c *Checkpoint) Dir() string { return c.dir }

// Degraded reports that a resume found a corrupt manifest and fell
// back to a fresh sweep.
func (c *Checkpoint) Degraded() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.degraded
}

// Completed returns the recorded entry for a job that finished
// successfully in a previous run. Failed jobs are not reported — they
// re-run on resume.
func (c *Checkpoint) Completed(name string) (*ManifestEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[name]
	if !ok || e.Status != "done" {
		return nil, false
	}
	return e, true
}

// JobFile returns the job's private checkpoint file path inside the
// checkpoint directory, derived stably from the job name (sanitized
// plus a CRC32 suffix so distinct names never collide).
func (c *Checkpoint) JobFile(name string) string {
	var sb strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '.' || r == '-' || r == '_':
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
		if sb.Len() >= 48 {
			break
		}
	}
	return filepath.Join(c.dir, fmt.Sprintf("%s-%08x.journal", sb.String(), crc32.ChecksumIEEE([]byte(name))))
}

// Record appends one finished job to the manifest and fsyncs it
// before returning, as the Runner does after each completion. External
// drivers that dispatch jobs one at a time (the rild daemon's queue
// workers run RunOne per dequeued job) persist completions through it
// so a restart resumes from the same manifest a batch sweep would
// leave. A failed append leaves the job unrecorded, in memory as on
// disk.
func (c *Checkpoint) Record(res Result) error {
	e := &ManifestEntry{Name: res.Name, Status: "done", Seconds: res.Seconds}
	if res.Err != nil {
		e.Status = "failed"
		e.Error = res.Err.Error()
	} else if res.Value != nil {
		raw, err := json.Marshal(res.Value)
		if err != nil {
			// A non-serializable value is recorded without its payload;
			// resume will still skip the job but report a nil value.
			raw = nil
		}
		e.Value = raw
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	recs := []any{e}
	if c.size == 0 {
		recs = []any{manifestHeader{Version: ManifestVersion}, e}
	}
	size, err := durable.AppendFile(ManifestPath(c.dir), c.size, recs...)
	if err != nil {
		return err
	}
	c.size = size
	c.entries[res.Name] = e
	return nil
}

// Complete reports whether every named job is recorded "done".
func (c *Checkpoint) Complete(names []string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range names {
		if e, ok := c.entries[n]; !ok || e.Status != "done" {
			return false
		}
	}
	return true
}
