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
// (manifest.json, rewritten atomically after every job completion) and
// one private checkpoint file per job (for jobs that checkpoint their
// own progress, e.g. SAT-attack DIP journals via Checkpoint.JobFile).
// On resume, jobs recorded "done" in the manifest are skipped — their
// recorded results are returned without re-running — while killed or
// failed jobs run again and pick up their own partial checkpoint
// files. A corrupted or truncated manifest degrades to a fresh sweep
// (Degraded reports it) rather than failing.

// ManifestVersion is the current manifest format version. Loading a
// manifest with a different version degrades to a fresh sweep.
const ManifestVersion = 1

// ManifestEntry is one job's recorded outcome.
type ManifestEntry struct {
	Name    string          `json:"name"`
	Status  string          `json:"status"` // "done" | "failed"
	Value   json.RawMessage `json:"value,omitempty"`
	Error   string          `json:"error,omitempty"`
	Seconds float64         `json:"seconds"`
}

// manifestFile is the on-disk manifest shape.
type manifestFile struct {
	Version int              `json:"version"`
	Jobs    []*ManifestEntry `json:"jobs"`
}

// Checkpoint persists sweep progress in a directory. Safe for
// concurrent use by sweep workers.
type Checkpoint struct {
	dir      string
	mu       sync.Mutex
	entries  map[string]*ManifestEntry
	order    []string // insertion order, for stable manifest output
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
// loading the manifest. A missing manifest is a normal fresh start; a
// corrupt, truncated or wrong-version manifest degrades to a fresh
// start (Degraded reports it) instead of erroring, so a damaged
// checkpoint can never block re-running the sweep.
func ResumeCheckpoint(dir string) (*Checkpoint, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c := &Checkpoint{dir: dir, entries: map[string]*ManifestEntry{}}
	raw, err := os.ReadFile(ManifestPath(dir))
	if errors.Is(err, os.ErrNotExist) {
		return c, nil
	}
	if err != nil {
		return nil, err
	}
	var mf manifestFile
	if err := json.Unmarshal(raw, &mf); err != nil || mf.Version != ManifestVersion {
		c.degraded = true
		return c, nil
	}
	for _, e := range mf.Jobs {
		if e == nil || e.Name == "" || (e.Status != "done" && e.Status != "failed") {
			c.degraded = true
			c.entries = map[string]*ManifestEntry{}
			c.order = nil
			return c, nil
		}
		if _, dup := c.entries[e.Name]; dup {
			c.degraded = true
			c.entries = map[string]*ManifestEntry{}
			c.order = nil
			return c, nil
		}
		c.entries[e.Name] = e
		c.order = append(c.order, e.Name)
	}
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

// Record stores one finished job and atomically rewrites the manifest,
// exactly as the Runner does after each completion. External drivers
// that dispatch jobs one at a time (the rild daemon's queue workers
// run RunOne per dequeued job) persist completions through it so a
// restart resumes from the same manifest a batch sweep would leave.
func (c *Checkpoint) Record(res Result) error { return c.record(res) }

// record stores one finished job and atomically rewrites the manifest
// (durable.WriteFile) so a kill mid-write can never corrupt a
// previously valid manifest.
func (c *Checkpoint) record(res Result) error {
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
	if _, seen := c.entries[res.Name]; !seen {
		c.order = append(c.order, res.Name)
	}
	c.entries[res.Name] = e
	return c.flushLocked()
}

// flushLocked writes the manifest atomically. Caller holds c.mu.
func (c *Checkpoint) flushLocked() error {
	mf := manifestFile{Version: ManifestVersion}
	for _, name := range c.order {
		mf.Jobs = append(mf.Jobs, c.entries[name])
	}
	raw, err := json.MarshalIndent(mf, "", "  ")
	if err != nil {
		return err
	}
	return durable.WriteFile(ManifestPath(c.dir), append(raw, '\n'))
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
