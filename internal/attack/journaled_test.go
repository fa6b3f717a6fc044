package attack

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// recordingOracle remembers every pattern the attack queried.
type recordingOracle struct {
	Oracle
	asked map[string]bool
}

func (o *recordingOracle) Query(in []bool) []bool {
	o.asked[BitString(in)] = true
	return o.Oracle.Query(in)
}

// journaledRun runs JournaledSATAttack on fx with its journal at path
// and returns the result, the oracle it queried and the lines it
// logged.
func journaledRun(t *testing.T, fx *fixture, path string, resume bool) (*SATResult, *recordingOracle, []string) {
	t.Helper()
	o := &recordingOracle{Oracle: fx.oracle(t), asked: map[string]bool{}}
	var logs []string
	logf := func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) }
	res, err := JournaledSATAttack(path, resume, logf, fx.locked, fx.keyPos, o, SATOptions{Timeout: time.Minute})
	if err != nil {
		t.Fatalf("journaled attack: %v", err)
	}
	return res, o, logs
}

// TestJournaledSATAttackPolicy covers the journal policy that
// cmd/satattack and rild share: what happens to the journal already at
// the path in each of the four cases a caller meets.
func TestJournaledSATAttackPolicy(t *testing.T) {
	fx := c17Fixture(t)
	full, journal, _ := attackWithJournal(t, fx, SATOptions{Timeout: time.Minute})
	if full.Status != KeyFound || full.Iterations < 2 {
		t.Fatalf("reference attack: %v", full)
	}
	// lines: header, one line per DIP, done, "".
	lines := strings.SplitAfter(string(journal), "\n")
	fp, err := Fingerprint(fx.locked, fx.keyPos)
	if err != nil {
		t.Fatal(err)
	}
	writeJournal := func(t *testing.T, content string) string {
		t.Helper()
		path := filepath.Join(t.TempDir(), "target.journal")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// finished checks the result against the reference run and that
	// the journal left at path is a finished journal of fx.
	finished := func(t *testing.T, res *SATResult, path string) {
		t.Helper()
		if res.Status != KeyFound || BitString(res.Key) != BitString(full.Key) || res.Iterations != full.Iterations {
			t.Errorf("result %v key %s, want %d DIPs and key %s", res, BitString(res.Key), full.Iterations, BitString(full.Key))
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		data, err := ReadJournal(f)
		if err != nil {
			t.Fatalf("journal left at path: %v", err)
		}
		if data.Header.Fingerprint != fp || len(data.Records) != full.Iterations || data.Done == nil {
			t.Errorf("journal left at path: fingerprint %s (want %s), %d records (want %d), done %v",
				data.Header.Fingerprint, fp, len(data.Records), full.Iterations, data.Done != nil)
		}
	}
	// startedFresh checks that nothing was replayed and the oracle
	// answered every DIP.
	startedFresh := func(t *testing.T, res *SATResult, o *recordingOracle) {
		t.Helper()
		if res.Replayed != 0 || o.Queries() != full.Iterations {
			t.Errorf("replayed %d DIPs and queried the oracle %d times, want 0 and %d", res.Replayed, o.Queries(), full.Iterations)
		}
	}

	t.Run("corrupt", func(t *testing.T) {
		// A flipped byte in the first DIP record, which later lines
		// follow, fails its CRC: ErrJournalCorrupt, not a torn tail.
		bad := []byte(journal)
		bad[len(lines[0])+len(lines[1])/2] ^= 0x01
		path := writeJournal(t, string(bad))
		res, o, logs := journaledRun(t, fx, path, true)
		if len(logs) != 1 || !strings.Contains(logs[0], path+": corrupt journal, starting fresh") {
			t.Errorf("logged %q, want one corrupt-journal line naming %s", logs, path)
		}
		startedFresh(t, res, o)
		finished(t, res, path)
	})

	t.Run("other-circuit", func(t *testing.T) {
		other := xorFixture(t, 30, 4, 7)
		_, otherJournal, _ := attackWithJournal(t, other, SATOptions{Timeout: time.Minute})
		path := writeJournal(t, string(otherJournal))
		res, o, logs := journaledRun(t, fx, path, true)
		if len(logs) != 1 || !strings.Contains(logs[0], path+": journal does not match, starting fresh") {
			t.Errorf("logged %q, want one does-not-match line naming %s", logs, path)
		}
		startedFresh(t, res, o)
		finished(t, res, path)
	})

	t.Run("fresh-deletes-stale", func(t *testing.T) {
		// A finished journal of this very attack: resumed, it would
		// answer every DIP from the file.
		path := writeJournal(t, string(journal))
		res, o, logs := journaledRun(t, fx, path, false)
		if len(logs) != 0 {
			t.Errorf("fresh run logged %q", logs)
		}
		startedFresh(t, res, o)
		finished(t, res, path)
	})

	t.Run("interrupted", func(t *testing.T) {
		k := full.Iterations / 2
		path := writeJournal(t, strings.Join(lines[:1+k], ""))
		res, o, logs := journaledRun(t, fx, path, true)
		if len(logs) != 0 {
			t.Errorf("resumed run logged %q", logs)
		}
		if res.Replayed != k || o.Queries() != full.Iterations-k {
			t.Errorf("replayed %d DIPs and queried the oracle %d times, want %d and %d", res.Replayed, o.Queries(), k, full.Iterations-k)
		}
		data, err := ReadJournal(strings.NewReader(strings.Join(lines[:1+k], "")))
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range data.Records {
			if o.asked[rec.DIP] {
				t.Errorf("oracle queried for replayed DIP %d (%s)", rec.Iteration, rec.DIP)
			}
		}
		finished(t, res, path)
	})
}
