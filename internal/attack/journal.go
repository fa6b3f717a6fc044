package attack

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/durable"
	"repro/internal/netlist"
	"repro/internal/sat"
)

// The DIP journal makes long-running SAT attacks crash-safe. The paper
// budgets up to five days of wall clock per attacked circuit; without a
// journal, a deadline, crash or sweep kill discards every accumulated
// DIP and oracle response. The journal is an append-only JSON-lines
// file, one fsync'd line per oracle query, so after a crash the attack
// resumes by replaying the journal *without re-querying the oracle* —
// oracle access is the scarce resource in the threat model (a physical
// activated chip on a tester), solver CPU is not.
//
// File format (version 1): a framed log (internal/durable), one JSON
// object per line:
//
//	{"crc":"xxxxxxxx","rec":{...}}
//
// where crc is the IEEE CRC32 of the exact rec bytes, and rec.kind is
// "header" (first line), "dip" (one per oracle query) or "done"
// (terminal). A torn final line — the expected artifact of a crash
// mid-write — is tolerated and dropped; corruption anywhere before the
// final line is an error that names the line.

// JournalVersion is the current journal file format version. Readers
// reject other versions; see DESIGN.md for the compatibility rules.
const JournalVersion = 1

// SearchVersion identifies the DIP loop's search trajectory: the
// clause stream, variable numbering and solve order that decide which
// DIPs a sequential attack finds and which solver snapshots its
// journal records. It is bumped whenever those change, so journals
// written by another search resume by constraint replay instead of
// failing verified re-solving, and result-cache keys mix it in so
// results of another search become misses. JournalVersion is the file
// format; SearchVersion is the trajectory.
//
// Version history:
//
//	0: every DIP stamps two full copies of the netlist
//	1: a DIP copy stamps only the logic the DIP leaves key-dependent
//	2: a DIP copy also collapses the buffers and inverters the DIP
//	   leaves, each onto the literal it copies
const SearchVersion = 2

// ErrJournalCorrupt tags all journal parse/integrity errors so callers
// can degrade to a fresh attack (errors.Is), as JournaledSATAttack does.
var ErrJournalCorrupt = errors.New("journal corrupt")

// ErrReplayDiverged reports that deterministic replay of a journal
// produced a different DIP or solver state than the journal records —
// the journal was written by a different circuit, option set or solver
// version. Callers should degrade to a fresh attack, as
// JournaledSATAttack does.
var ErrReplayDiverged = errors.New("journal replay diverged")

// JournalHeader identifies the attack a journal belongs to. Replay
// validates every field against the resumed attack's arguments.
type JournalHeader struct {
	Version int    `json:"version"`
	Circuit string `json:"circuit"`
	Inputs  int    `json:"inputs"`   // functional (non-key) input count
	Outputs int    `json:"outputs"`  // primary output count
	KeyBits int    `json:"key_bits"` // key input count
	BVA     bool   `json:"bva,omitempty"`
	// Portfolio records that the journal was written by a portfolio
	// attack: its DIP sequence is verdict-correct but trace-
	// nondeterministic, so resumption uses constraint replay instead of
	// verified re-solving. Excluded from header matching — a sequential
	// journal may be resumed by a portfolio attack and vice versa.
	Portfolio bool `json:"portfolio,omitempty"`
	// Search is the SearchVersion of the attack that wrote the
	// journal; absent means 0. A journal from another search version
	// resumes by constraint replay. Excluded from header matching, as
	// Portfolio is.
	Search int `json:"search,omitempty"`
	// Fingerprint is the CRC32 of the locked netlist's canonical .bench
	// serialization plus the key positions, so a journal cannot be
	// replayed against a different circuit.
	Fingerprint string `json:"fingerprint"`
}

// JournalRecord is one journaled DIP iteration: the distinguishing
// input pattern, the oracle's response, and the cumulative solver state
// at record time.
type JournalRecord struct {
	Iteration int          `json:"iteration"` // 1-based, consecutive
	DIP       string       `json:"dip"`       // little-endian '0'/'1' bits
	Oracle    string       `json:"oracle"`    // oracle output bits
	ElapsedMS int64        `json:"elapsed_ms"`
	Solver    sat.Snapshot `json:"solver"`
}

// JournalDone is the terminal record of a finished attack.
type JournalDone struct {
	Status     string       `json:"status"` // Status.String()
	Key        string       `json:"key,omitempty"`
	Iterations int          `json:"iterations"`
	ElapsedMS  int64        `json:"elapsed_ms"`
	Solver     sat.Snapshot `json:"solver"`
}

// JournalData is a parsed journal: the header, the complete DIP
// records, and the terminal record if the attack finished.
type JournalData struct {
	Header  JournalHeader
	Records []JournalRecord
	Done    *JournalDone
	// Truncated reports that a torn or corrupt final line was dropped
	// (the expected artifact of a crash mid-write).
	Truncated bool
	// validBytes is the byte offset of the end of the last valid line,
	// used to truncate a torn tail before appending.
	validBytes int64
}

// Tagged per-kind wrappers: a single embedded struct marshals inline,
// giving {"kind":"dip","iteration":...} lines without field clashes.
type (
	taggedHeader struct {
		Kind string `json:"kind"`
		JournalHeader
	}
	taggedRecord struct {
		Kind string `json:"kind"`
		JournalRecord
	}
	taggedDone struct {
		Kind string `json:"kind"`
		JournalDone
	}
)

// Fingerprint computes the circuit identity recorded in a journal
// header: CRC32 over the canonical .bench serialization of the locked
// netlist followed by the key positions.
func Fingerprint(locked *netlist.Netlist, keyPos []int) (string, error) {
	h := crc32.NewIEEE()
	if err := locked.WriteBench(h); err != nil {
		return "", err
	}
	for _, p := range keyPos {
		fmt.Fprintf(h, ",%d", p)
	}
	return fmt.Sprintf("%08x", h.Sum32()), nil
}

// Journal is an append-only journal writer. Every line is written and
// — when the underlying writer supports it — fsync'd before Append
// returns, so a record is durable before its oracle response is acted
// on. Safe for use from a single attack goroutine; the internal lock
// only guards against concurrent observers.
type Journal struct {
	mu         sync.Mutex
	w          io.Writer
	headerDone bool
}

// HeaderWritten reports whether the header line is already present
// (true for journals opened in append mode on a non-empty file).
func (j *Journal) HeaderWritten() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.headerDone
}

func (j *Journal) writeLine(rec any) error {
	if _, err := durable.Append(j.w, rec); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// WriteHeader writes the identifying header line. It must be the first
// write and must happen exactly once per file.
func (j *Journal) WriteHeader(h JournalHeader) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.headerDone {
		return fmt.Errorf("journal: header already written")
	}
	if h.Version == 0 {
		h.Version = JournalVersion
	}
	if err := j.writeLine(taggedHeader{"header", h}); err != nil {
		return err
	}
	j.headerDone = true
	return nil
}

// Append journals one DIP record durably.
func (j *Journal) Append(r JournalRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.headerDone {
		return fmt.Errorf("journal: Append before WriteHeader")
	}
	return j.writeLine(taggedRecord{"dip", r})
}

// Finish journals the terminal record of a completed attack.
func (j *Journal) Finish(d JournalDone) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.headerDone {
		return fmt.Errorf("journal: Finish before WriteHeader")
	}
	return j.writeLine(taggedDone{"done", d})
}

// corruptf builds a line-tagged corruption error (errors.Is
// ErrJournalCorrupt).
func corruptf(line int, format string, args ...any) error {
	return fmt.Errorf("journal: line %d: %s: %w", line, fmt.Sprintf(format, args...), ErrJournalCorrupt)
}

// ReadJournal parses a journal stream. A torn or corrupt *final* line
// is tolerated (dropped, Truncated set); corruption before the final
// line, an unknown version, or out-of-order records produce an error
// naming the offending line.
func ReadJournal(r io.Reader) (*JournalData, error) {
	data := &JournalData{}
	valid, torn, err := durable.ReadLog(r, func(line int, rec []byte) error {
		return parseLine(data, rec, line)
	})
	var bad *durable.LineError
	if errors.As(err, &bad) {
		return nil, corruptf(bad.Line, "%v", bad.Err)
	}
	if err != nil {
		return nil, err
	}
	if data.Header.Version == 0 {
		return nil, corruptf(1, "missing header")
	}
	data.validBytes, data.Truncated = valid, torn
	return data, nil
}

// parseLine validates and applies one journal record.
func parseLine(data *JournalData, rec []byte, lineNo int) error {
	var kind struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(rec, &kind); err != nil {
		return fmt.Errorf("bad record: %v", err)
	}
	switch kind.Kind {
	case "header":
		if lineNo != 1 {
			return errors.New("header after line 1")
		}
		var h JournalHeader
		if err := json.Unmarshal(rec, &h); err != nil {
			return fmt.Errorf("bad header: %v", err)
		}
		if h.Version != JournalVersion {
			return fmt.Errorf("unsupported journal version %d (want %d)", h.Version, JournalVersion)
		}
		if h.Inputs < 0 || h.Outputs < 0 || h.KeyBits < 0 {
			return errors.New("negative arity in header")
		}
		data.Header = h
	case "dip":
		if lineNo == 1 {
			return errors.New("record before header")
		}
		if data.Done != nil {
			return errors.New("record after done")
		}
		var r JournalRecord
		if err := json.Unmarshal(rec, &r); err != nil {
			return fmt.Errorf("bad dip record: %v", err)
		}
		if r.Iteration != len(data.Records)+1 {
			return fmt.Errorf("iteration %d out of order (want %d)", r.Iteration, len(data.Records)+1)
		}
		if len(r.DIP) != data.Header.Inputs {
			return fmt.Errorf("dip has %d bits, header says %d inputs", len(r.DIP), data.Header.Inputs)
		}
		if len(r.Oracle) != data.Header.Outputs {
			return fmt.Errorf("oracle response has %d bits, header says %d outputs", len(r.Oracle), data.Header.Outputs)
		}
		if _, err := parseBits(r.DIP); err != nil {
			return fmt.Errorf("dip: %v", err)
		}
		if _, err := parseBits(r.Oracle); err != nil {
			return fmt.Errorf("oracle: %v", err)
		}
		data.Records = append(data.Records, r)
	case "done":
		if lineNo == 1 {
			return errors.New("record before header")
		}
		if data.Done != nil {
			return errors.New("duplicate done record")
		}
		var d JournalDone
		if err := json.Unmarshal(rec, &d); err != nil {
			return fmt.Errorf("bad done record: %v", err)
		}
		if d.Key != "" {
			if len(d.Key) != data.Header.KeyBits {
				return fmt.Errorf("key has %d bits, header says %d", len(d.Key), data.Header.KeyBits)
			}
			if _, err := parseBits(d.Key); err != nil {
				return fmt.Errorf("key: %v", err)
			}
		}
		data.Done = &d
	default:
		return fmt.Errorf("unknown record kind %q", kind.Kind)
	}
	return nil
}

// parseBits decodes a little-endian '0'/'1' string.
func parseBits(s string) ([]bool, error) {
	bits := make([]bool, len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '0':
		case '1':
			bits[i] = true
		default:
			return nil, fmt.Errorf("bad bit %q at position %d", s[i], i)
		}
	}
	return bits, nil
}

// JournalPath returns the path of the named attack's journal inside
// dir: the name sanitized to at most 48 path-safe bytes, then a CRC32
// of the whole name, so distinct names never share a file. satattack
// names a target's journal by its locked netlist's path, rild by job
// ID.
func JournalPath(dir, name string) string {
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
	return filepath.Join(dir, fmt.Sprintf("%s-%08x.journal", sb.String(), crc32.ChecksumIEEE([]byte(name))))
}

// OpenJournal opens (or creates) a journal file for a checkpointed
// attack. For a fresh or empty file it returns an empty *Journal and a
// nil *JournalData, after fsyncing the directory so the new file's
// name survives a crash along with the records fsynced into it. For
// an existing journal it parses the content, truncates a torn tail in
// place, and returns the writer positioned to append plus the parsed
// data for SATOptions.Resume. A journal corrupt beyond the torn-tail
// tolerance is returned as an error (errors.Is ErrJournalCorrupt);
// JournaledSATAttack then deletes the file and starts fresh.
func OpenJournal(path string) (*Journal, *JournalData, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	st, err := f.Stat()
	if err != nil {
		return nil, nil, errors.Join(err, f.Close())
	}
	if st.Size() == 0 {
		if err := durable.SyncDir(filepath.Dir(path)); err != nil {
			return nil, nil, errors.Join(err, f.Close())
		}
		return &Journal{w: f}, nil, nil
	}
	data, err := ReadJournal(f)
	if err != nil {
		return nil, nil, errors.Join(fmt.Errorf("%s: %w", path, err), f.Close())
	}
	if data.Truncated {
		if err := f.Truncate(data.validBytes); err != nil {
			return nil, nil, errors.Join(err, f.Close())
		}
	}
	if _, err := f.Seek(data.validBytes, io.SeekStart); err != nil {
		return nil, nil, errors.Join(err, f.Close())
	}
	return &Journal{w: f, headerDone: true}, data, nil
}

// Close closes the underlying writer when it is closeable.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if c, ok := j.w.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// JournaledSATAttack runs SATAttack with its journal at path, the
// policy every checkpointed caller shares. With resume a journal
// already at path is replayed first; without, it is deleted before the
// attack starts. A journal that ErrJournalCorrupt or ErrReplayDiverged
// rejects is replaced by a fresh one, and logf says why. It sets
// opt.Journal and opt.Resume; an empty path runs SATAttack as is.
func JournaledSATAttack(path string, resume bool, logf func(format string, args ...any),
	locked *netlist.Netlist, keyPos []int, oracle Oracle, opt SATOptions) (*SATResult, error) {
	if path == "" {
		return SATAttack(locked, keyPos, oracle, opt)
	}
	res, err := attackJournalAt(path, !resume, logf, locked, keyPos, oracle, opt)
	if errors.Is(err, ErrReplayDiverged) {
		// The journal belongs to another circuit or attack configuration.
		logf("%s: journal does not match, starting fresh: %v", path, err)
		res, err = attackJournalAt(path, true, logf, locked, keyPos, oracle, opt)
	}
	return res, err
}

// attackJournalAt runs one attack of JournaledSATAttack: it deletes
// the journal at path first when fresh, replaces a corrupt one, and
// resumes from whatever the journal holds.
func attackJournalAt(path string, fresh bool, logf func(format string, args ...any),
	locked *netlist.Netlist, keyPos []int, oracle Oracle, opt SATOptions) (res *SATResult, err error) {
	if fresh {
		if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
	}
	j, data, err := OpenJournal(path)
	if errors.Is(err, ErrJournalCorrupt) {
		logf("%s: corrupt journal, starting fresh: %v", path, err)
		if err := os.Remove(path); err != nil {
			return nil, err
		}
		j, data, err = OpenJournal(path)
	}
	if err != nil {
		return nil, err
	}
	// The journal fsyncs per record; a failed close is the last chance
	// to observe lost appended DIPs, so join it into err.
	defer func() { err = errors.Join(err, j.Close()) }()
	opt.Journal, opt.Resume = j, data
	return SATAttack(locked, keyPos, oracle, opt)
}
