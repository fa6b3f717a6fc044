package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/testutil"
)

type rec struct {
	N int    `json:"n"`
	S string `json:"s,omitempty"`
}

// readRecs reads a framed log into its records.
func readRecs(t *testing.T, data []byte) (recs []rec, valid int64, torn bool, err error) {
	t.Helper()
	valid, torn, err = ReadLog(bytes.NewReader(data), func(line int, raw []byte) error {
		var r rec
		if err := json.Unmarshal(raw, &r); err != nil {
			return err
		}
		if r.N != line {
			return fmt.Errorf("record %d on line %d", r.N, line)
		}
		recs = append(recs, r)
		return nil
	})
	return recs, valid, torn, err
}

// TestAppendLineLayout pins the line layout the DIP journal's files
// depend on: {"crc":"<8 hex>","rec":<the record's json.Marshal bytes>}.
func TestAppendLineLayout(t *testing.T) {
	var buf bytes.Buffer
	n, err := Append(&buf, rec{N: 1, S: "<a&b>"}, rec{N: 2})
	if err != nil || n != buf.Len() {
		t.Fatalf("Append = %d, %v; buffer holds %d bytes", n, err, buf.Len())
	}
	line := func(rec string) string {
		return fmt.Sprintf(`{"crc":"%08x","rec":%s}`, crc32.ChecksumIEEE([]byte(rec)), rec) + "\n"
	}
	want := line(`{"n":1,"s":"\u003ca\u0026b\u003e"}`) + line(`{"n":2}`)
	if buf.String() != want {
		t.Fatalf("lines\n%s\nwant\n%s", buf.String(), want)
	}
}

// TestReadLogTornTail cuts the last of three lines at every byte: the
// first two survive, the cut one is dropped as torn, and valid is the
// length of the two. The cut that leaves only the newline off is torn
// too, and its record is not handed to the reader.
func TestReadLogTornTail(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Append(&buf, rec{N: 1}, rec{N: 2}, rec{N: 3, S: "third"}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	two := int64(len(full) - len(bytes.SplitAfter(full, []byte("\n"))[2]))
	for cut := two + 1; cut < int64(len(full)); cut++ {
		recs, valid, torn, err := readRecs(t, full[:cut])
		if err != nil || !torn || valid != two || len(recs) != 2 {
			t.Fatalf("cut %d: %d records, valid %d, torn %v, err %v; want 2, %d, true, nil", cut, len(recs), valid, torn, err, two)
		}
	}
	recs, valid, torn, err := readRecs(t, full)
	if err != nil || torn || valid != int64(len(full)) || len(recs) != 3 {
		t.Fatalf("whole log: %d records, valid %d, torn %v, err %v", len(recs), valid, torn, err)
	}
	if _, valid, torn, err := readRecs(t, nil); err != nil || torn || valid != 0 {
		t.Fatalf("empty log: valid %d, torn %v, err %v", valid, torn, err)
	}
}

// TestReadLogCorruptLine: a bad line followed by another is corruption
// that names the line, whether its framing fails or its reader
// rejects it; the same line last is a torn tail.
func TestReadLogCorruptLine(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Append(&buf, rec{N: 1}, rec{N: 2}, rec{N: 3}); err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(buf.Bytes(), []byte("\n"))
	for name, bad := range map[string][]byte{
		"crc-mismatch": bytes.Replace(lines[1], []byte(`"n":2`), []byte(`"n":7`), 1),
		"not-envelope": []byte("not a log line\n"),
		"blank":        []byte("\n"),
		"rejected":     lines[2], // record 3 on line 2
	} {
		mid := bytes.Join([][]byte{lines[0], bad, lines[2]}, nil)
		_, _, _, err := readRecs(t, mid)
		var le *LineError
		if !errors.As(err, &le) || le.Line != 2 {
			t.Errorf("%s mid-log: err %v, want a LineError on line 2", name, err)
		}
		tail := bytes.Join([][]byte{lines[0], bad}, nil)
		recs, valid, torn, err := readRecs(t, tail)
		if err != nil || !torn || len(recs) != 1 || valid != int64(len(lines[0])) {
			t.Errorf("%s last: %d records, valid %d, torn %v, err %v; want a dropped tail", name, len(recs), valid, torn, err)
		}
	}
}

// TestAppendFileCrash tears an append at every byte budget: AppendFile
// fails and returns the old size, the file keeps its earlier lines,
// and the next AppendFile cuts the torn bytes before appending. The
// first append creates the file mode 0600.
func TestAppendFileCrash(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	size, err := AppendFile(path, 0, rec{N: 1})
	if err != nil {
		t.Fatal(err)
	}
	if info, err := os.Stat(path); err != nil || info.Mode().Perm() != 0o600 || info.Size() != size {
		t.Fatalf("new log: %v, %v; want mode 0600 and size %d", info, err, size)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	orig := NewSink
	t.Cleanup(func() { NewSink = orig })
	for budget := 0; ; budget++ {
		NewSink = func(f *os.File) Sink { return testutil.NewFaultyWriter(f, budget) }
		got, err := AppendFile(path, size, rec{N: 2, S: "second"})
		NewSink = orig
		if err == nil {
			size = got
			break
		}
		if !errors.Is(err, testutil.ErrInjected) || got != size {
			t.Fatalf("budget %d: AppendFile = %d, %v; want %d and the injected fault", budget, got, err, size)
		}
		disk, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(disk, before) || len(disk) != len(before)+budget {
			t.Fatalf("budget %d: file holds %q", budget, disk)
		}
		if recs, _, _, err := readRecs(t, disk); err != nil || len(recs) != 1 {
			t.Fatalf("budget %d: %d records, err %v; want the first record only", budget, len(recs), err)
		}
	}
	disk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, valid, torn, err := readRecs(t, disk)
	if err != nil || torn || len(recs) != 2 || valid != size || int64(len(disk)) != size {
		t.Fatalf("after the completed append: %d records, valid %d, torn %v, err %v, file %d bytes, size %d",
			len(recs), valid, torn, err, len(disk), size)
	}
}
