package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/durable"
)

// The job manifest: StateDir/ckpt/manifest.json, beside the attack
// jobs' DIP journals, records each finished job's outcome by job ID.
// It is a framed log (internal/durable): a header line, then one
// "done" line per record, appended and fsynced before record returns,
// so a record costs the same however many came before. A later line
// for an ID supersedes an earlier one, and the log is never compacted.
// On start, jobs recorded "done" come back terminal, while unrecorded
// ones run again and pick up their journals; a recorded job's journal
// is removed, since nothing resumes from it. Earlier daemons also
// appended a "failed" line for each interrupted job; such a line still
// reads, as not finished. A torn last line, the mark of a crash
// mid-append, is cut off; any other damage, or another version,
// degrades to an empty manifest (degraded reports it) rather than
// failing. A job ID is minted once and never reused, so a record can
// never answer for other work.

// manifestVersion is the current manifest format version. Opening a
// manifest with a different version degrades to an empty manifest.
//
// Version history:
//
//	1: one indented JSON document, rewritten whole per completion
//	2: a framed log, one line appended per completion
const manifestVersion = 2

// manifestEntry is one job's recorded outcome: its ID, "done" (or an
// earlier daemon's "failed"), its jobOutcome envelope and its seconds.
type manifestEntry struct {
	Name    string          `json:"name"`
	Status  string          `json:"status"`
	Value   json.RawMessage `json:"value,omitempty"`
	Seconds float64         `json:"seconds"`
}

// manifestHeader is the manifest's first line.
type manifestHeader struct {
	Version int `json:"version"`
}

// manifest is the open job manifest. Safe for concurrent use by the
// daemon's workers.
type manifest struct {
	path     string
	degraded bool // set by openManifest only

	mu      sync.Mutex
	entries map[string]*manifestEntry
	size    int64 // bytes of valid manifest log; 0 starts a new log
}

// manifestPath returns the manifest file path inside a checkpoint dir.
func manifestPath(dir string) string { return filepath.Join(dir, "manifest.json") }

// openManifest creates dir if need be and loads its manifest, cutting
// off a torn last line. A missing manifest is a normal fresh start; a
// corrupt or wrong-version manifest degrades to an empty manifest
// (degraded reports it) instead of erroring, so a damaged manifest can
// never keep the daemon from starting. The first record after a
// degraded open starts a new log.
func openManifest(dir string) (*manifest, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	m := &manifest{path: manifestPath(dir), entries: map[string]*manifestEntry{}}
	f, err := os.Open(m.path)
	if errors.Is(err, os.ErrNotExist) {
		return m, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var entries []*manifestEntry
	size, torn, err := durable.ReadLog(f, func(line int, rec []byte) error {
		if line == 1 {
			var h manifestHeader
			if err := json.Unmarshal(rec, &h); err != nil {
				return err
			}
			if h.Version != manifestVersion {
				return fmt.Errorf("manifest version %d, want %d", h.Version, manifestVersion)
			}
			return nil
		}
		e := &manifestEntry{}
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
		m.degraded = true
		return m, nil
	}
	for _, e := range entries {
		if e.Name == "" || (e.Status != "done" && e.Status != "failed") {
			m.degraded = true
			return m, nil
		}
	}
	if torn {
		if err := os.Truncate(m.path, size); err != nil {
			return nil, err
		}
	}
	for _, e := range entries {
		m.entries[e.Name] = e // a later line supersedes an earlier one
	}
	m.size = size
	return m, nil
}

// completed returns the recorded entry of a job that finished in a
// previous run. A job whose last line is "failed" is not reported: it
// runs again.
func (m *manifest) completed(id string) (*manifestEntry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[id]
	if !ok || e.Status != "done" {
		return nil, false
	}
	return e, true
}

// record appends one finished job's outcome to the manifest, "done"
// with its envelope and seconds, and fsyncs it before returning. A
// failed append leaves the job unrecorded, in memory as on disk.
func (m *manifest) record(id string, out *jobOutcome, seconds float64) error {
	raw, err := json.Marshal(out)
	if err != nil {
		return err
	}
	e := &manifestEntry{Name: id, Status: "done", Value: raw, Seconds: seconds}
	m.mu.Lock()
	defer m.mu.Unlock()
	recs := []any{e}
	if m.size == 0 {
		recs = []any{manifestHeader{Version: manifestVersion}, e}
	}
	size, err := durable.AppendFile(m.path, m.size, recs...)
	if err != nil {
		return err
	}
	m.size = size
	m.entries[id] = e
	return nil
}
