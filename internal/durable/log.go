package durable

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// A framed log is an append-only file of JSON lines, one record each:
//
//	{"crc":"xxxxxxxx","rec":{...}}
//
// where crc is the IEEE CRC32 of the exact rec bytes, in 8 lowercase
// hex digits. A writer fsyncs each append before going on, so a crash
// can tear only the last line: ReadLog drops a bad last line as that
// tear and reports a bad line before it as corruption. The DIP journal
// (internal/attack) and rild's job manifest (internal/serve) are
// framed logs.

// LineError is a bad line of a framed log: it fails its framing or its
// reader rejects its record.
type LineError struct {
	Line int // 1-based
	Err  error
}

func (e *LineError) Error() string { return fmt.Sprintf("line %d: %v", e.Line, e.Err) }

func (e *LineError) Unwrap() error { return e.Err }

// Append marshals each rec, frames it as one log line, writes the
// lines to w in one write and, when w is a Sink, fsyncs it. It returns
// the bytes written.
func Append(w io.Writer, recs ...any) (int, error) {
	var buf []byte
	for _, rec := range recs {
		raw, err := json.Marshal(rec)
		if err != nil {
			return 0, fmt.Errorf("marshal record: %w", err)
		}
		buf = fmt.Appendf(buf, `{"crc":"%08x","rec":`, crc32.ChecksumIEEE(raw))
		buf = append(append(buf, raw...), "}\n"...)
	}
	n, err := w.Write(buf)
	if err != nil {
		return n, fmt.Errorf("write: %w", err)
	}
	if s, ok := w.(Sink); ok {
		if err := s.Sync(); err != nil {
			return n, fmt.Errorf("sync: %w", err)
		}
	}
	return n, nil
}

// AppendFile appends recs to the framed log at path, whose valid
// prefix is size bytes, and returns the new size. It opens the file,
// creating it mode 0600, cuts anything past size (a line torn by a
// crash or a failed append), appends through NewSink with one fsync,
// and closes it. When size is 0 the log is new and the directory is
// fsynced too, so the file's name survives a crash with its lines. On
// failure it returns size: a torn line may remain past it, and the
// next AppendFile cuts it.
func AppendFile(path string, size int64, recs ...any) (int64, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o600)
	if err != nil {
		return size, err
	}
	st, err := f.Stat()
	if err == nil && st.Size() > size {
		err = f.Truncate(size)
	}
	n := 0
	if err == nil {
		n, err = Append(NewSink(f), recs...)
	}
	if err == nil && size == 0 {
		err = SyncDir(filepath.Dir(path))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return size, err
	}
	return size + int64(n), nil
}

// ReadLog reads a framed log and calls fn with each line's number and
// rec bytes, in order. The first line that fails its framing (not an
// envelope, a CRC mismatch, no trailing newline) or that fn rejects
// ends the read: as the last line it is a torn append, dropped with
// torn set; before the last line it is corruption, returned as a
// *LineError. valid is the byte length of the lines before it, where
// the next append belongs. A read error other than io.EOF is returned
// as is.
func ReadLog(r io.Reader, fn func(line int, rec []byte) error) (valid int64, torn bool, err error) {
	br := bufio.NewReader(r)
	var bad error // the first bad line; corruption if anything follows it
	//rilvet:ignore ctx-loop advances one input line per pass and terminates at EOF, so it is bounded by the log's size, not by solver progress
	for lineNo := 1; ; lineNo++ {
		line, readErr := br.ReadBytes('\n')
		if readErr != nil && readErr != io.EOF {
			return valid, false, readErr
		}
		if len(line) == 0 {
			break
		}
		if bad != nil {
			return valid, false, bad
		}
		if err := checkLine(line, lineNo, fn); err != nil {
			bad = &LineError{Line: lineNo, Err: err}
			continue
		}
		valid += int64(len(line))
	}
	return valid, bad != nil, nil
}

// checkLine unframes one line and hands its record to fn.
func checkLine(line []byte, lineNo int, fn func(int, []byte) error) error {
	body, ok := bytes.CutSuffix(line, []byte("\n"))
	if !ok {
		// Each append's fsync covers its newline, so an unterminated
		// line is a torn write and its record cannot be trusted whole.
		return errors.New("missing trailing newline")
	}
	var env struct {
		CRC string          `json:"crc"`
		Rec json.RawMessage `json:"rec"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		return fmt.Errorf("bad envelope: %v", err)
	}
	if got := fmt.Sprintf("%08x", crc32.ChecksumIEEE(env.Rec)); got != env.CRC {
		return fmt.Errorf("CRC mismatch: line says %q, content is %q", env.CRC, got)
	}
	return fn(lineNo, env.Rec)
}
