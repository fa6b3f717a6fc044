package attack

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/sat"
	"repro/internal/testutil"
)

// NewJournal wraps a writer as a fresh journal sink. WriteHeader must
// be called before the first Append; SATAttack does this itself.
func NewJournal(w io.Writer) *Journal { return &Journal{w: w} }

// c432Profile synthesizes the full-scale c432 profile circuit used by
// the query-count regression pin.
func c432Profile(t *testing.T) *netlist.Netlist {
	t.Helper()
	prof, ok := circuit.ProfileByName("c432")
	if !ok {
		t.Fatal("c432 profile missing")
	}
	orig, err := prof.Synthesize(1.0)
	if err != nil {
		t.Fatal(err)
	}
	return orig
}

// fixture is a locked circuit plus everything needed to build fresh
// oracles for repeated attacks against it.
type fixture struct {
	locked *netlist.Netlist
	keyPos []int
	bound  *netlist.Netlist
}

// rilFixture locks a circuit with one RIL block of the given geometry.
func rilFixture(t *testing.T, orig *netlist.Netlist, size core.Size, seed int64) *fixture {
	t.Helper()
	res, err := core.Lock(orig, core.Options{Blocks: 1, Size: size, Seed: seed})
	if err != nil {
		t.Fatalf("lock: %v", err)
	}
	bound, err := res.ApplyKey(res.Key)
	if err != nil {
		t.Fatalf("apply key: %v", err)
	}
	return &fixture{locked: res.Locked, keyPos: res.KeyInputPos, bound: bound}
}

// xorFixture locks a random circuit with the XOR baseline (cheap, many
// DIPs — good for truncation sweeps).
func xorFixture(t *testing.T, gates, nKeys int, seed int64) *fixture {
	t.Helper()
	orig := testutil.SmallCircuit(t, gates, seed)
	locked, keyPos, key := testutil.XORLock(t, orig, nKeys, seed+1)
	bound, err := locked.BindInputs(keyPos, key)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{locked: locked, keyPos: keyPos, bound: bound}
}

// oracle builds a fresh oracle with a zero query counter.
func (f *fixture) oracle(t *testing.T) *SimOracle {
	t.Helper()
	o, err := NewSimOracle(f.bound)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// checkKey fails the test unless key unlocks the fixture's function.
func (f *fixture) checkKey(t *testing.T, name string, key []bool) {
	t.Helper()
	got, err := f.locked.BindInputs(f.keyPos, key)
	if err != nil {
		t.Fatal(err)
	}
	eq, cex, err := netlist.Equivalent(got, f.bound, 16, 4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Errorf("%s: key %s is functionally wrong, counterexample %s", name, BitString(key), BitString(cex))
	}
}

// c17Fixture mirrors the regression test's c17 lock (2x2 block, seed 17).
func c17Fixture(t *testing.T) *fixture {
	t.Helper()
	f, err := os.Open("../../testdata/c17.bench")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	orig, err := netlist.ParseBench("c17", f)
	if err != nil {
		t.Fatal(err)
	}
	return rilFixture(t, orig, core.Size2x2, 17)
}

// attackWithJournal runs a journaled attack to completion and returns
// the result, the journal bytes, and the oracle query count.
func attackWithJournal(t *testing.T, fx *fixture, opt SATOptions) (*SATResult, []byte, int) {
	t.Helper()
	var buf bytes.Buffer
	opt.Journal = NewJournal(&buf)
	oracle := fx.oracle(t)
	res, err := SATAttack(fx.locked, fx.keyPos, oracle, opt)
	if err != nil {
		t.Fatalf("journaled attack: %v", err)
	}
	return res, buf.Bytes(), oracle.Queries()
}

func TestJournalRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	hdr := JournalHeader{Version: JournalVersion, Circuit: "c", Inputs: 3, Outputs: 2, KeyBits: 4, Fingerprint: "00c0ffee"}
	if err := j.WriteHeader(hdr); err != nil {
		t.Fatal(err)
	}
	recs := []JournalRecord{
		{Iteration: 1, DIP: "010", Oracle: "11", ElapsedMS: 5, Solver: sat.Snapshot{Vars: 10, Clauses: 20}},
		{Iteration: 2, DIP: "111", Oracle: "01", ElapsedMS: 9, Solver: sat.Snapshot{Vars: 30, Clauses: 44}},
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	done := JournalDone{Status: "key-found", Key: "1010", Iterations: 2, ElapsedMS: 12}
	if err := j.Finish(done); err != nil {
		t.Fatal(err)
	}

	data, err := ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if data.Truncated {
		t.Error("clean journal reported truncated")
	}
	if data.Header != hdr {
		t.Errorf("header round trip: got %+v want %+v", data.Header, hdr)
	}
	if len(data.Records) != len(recs) {
		t.Fatalf("got %d records, want %d", len(data.Records), len(recs))
	}
	for i := range recs {
		if data.Records[i] != recs[i] {
			t.Errorf("record %d: got %+v want %+v", i, data.Records[i], recs[i])
		}
	}
	if data.Done == nil || *data.Done != done {
		t.Errorf("done round trip: got %+v want %+v", data.Done, done)
	}
}

func TestJournalSyncPerRecord(t *testing.T) {
	var buf bytes.Buffer
	fw := testutil.NewFaultyWriter(&buf, -1)
	j := NewJournal(fw)
	if err := j.WriteHeader(JournalHeader{Inputs: 1, Outputs: 1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(JournalRecord{Iteration: 1, DIP: "0", Oracle: "1"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(JournalRecord{Iteration: 2, DIP: "1", Oracle: "0"}); err != nil {
		t.Fatal(err)
	}
	if fw.Syncs != 3 {
		t.Errorf("journal issued %d syncs for 3 lines, want 3 (fsync-on-record)", fw.Syncs)
	}
}

func TestReadJournalCorruptMidFileNamesLine(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	if err := j.WriteHeader(JournalHeader{Circuit: "c", Inputs: 2, Outputs: 1}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := j.Append(JournalRecord{Iteration: i, DIP: "01", Oracle: "1"}); err != nil {
			t.Fatal(err)
		}
	}
	lines := strings.SplitAfter(buf.String(), "\n")
	// Flip a byte inside line 3 (the second dip record).
	corrupted := lines[0] + lines[1] + strings.Replace(lines[2], "dip", "dIp", 1) + lines[3]
	_, err := ReadJournal(strings.NewReader(corrupted))
	if err == nil {
		t.Fatal("mid-file corruption accepted")
	}
	if !errors.Is(err, ErrJournalCorrupt) {
		t.Errorf("error does not wrap ErrJournalCorrupt: %v", err)
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error does not name line 3: %v", err)
	}

	// The same damage on the *final* line is tolerated as a torn tail.
	tail := lines[0] + lines[1] + lines[2] + strings.Replace(lines[3], "dip", "dIp", 1)
	data, err := ReadJournal(strings.NewReader(tail))
	if err != nil {
		t.Fatalf("torn tail not tolerated: %v", err)
	}
	if !data.Truncated || len(data.Records) != 2 {
		t.Errorf("torn tail: truncated=%v records=%d, want true/2", data.Truncated, len(data.Records))
	}
}

func TestOpenJournalTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.journal")
	var buf bytes.Buffer
	j := NewJournal(&buf)
	if err := j.WriteHeader(JournalHeader{Circuit: "c", Inputs: 1, Outputs: 1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(JournalRecord{Iteration: 1, DIP: "0", Oracle: "1"}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Simulate a crash mid-write of record 2: half a line at the end.
	if err := j.Append(JournalRecord{Iteration: 2, DIP: "1", Oracle: "0"}); err != nil {
		t.Fatal(err)
	}
	torn := buf.Bytes()[:len(full)+17]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	w, data, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("OpenJournal on torn file: %v", err)
	}
	if data == nil || len(data.Records) != 1 || !data.Truncated {
		t.Fatalf("torn journal parsed wrong: %+v", data)
	}
	// Appending after the repair must yield a clean, fully parseable file.
	if err := w.Append(JournalRecord{Iteration: 2, DIP: "1", Oracle: "1"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	reread, err := ReadJournal(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("journal corrupt after repair+append: %v", err)
	}
	if reread.Truncated || len(reread.Records) != 2 {
		t.Errorf("repaired journal: truncated=%v records=%d, want false/2", reread.Truncated, len(reread.Records))
	}
	if reread.Records[1].Oracle != "1" {
		t.Errorf("appended record lost: %+v", reread.Records[1])
	}
}

// TestOpenJournalDropsUnterminatedRecord: a last record whose line
// lacks only its newline was not fsynced whole, so it is dropped with
// the bytes OpenJournal cuts off. Resuming then appends the next
// iteration after the last kept one, and the journal rereads clean.
func TestOpenJournalDropsUnterminatedRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.journal")
	var buf bytes.Buffer
	j := NewJournal(&buf)
	if err := j.WriteHeader(JournalHeader{Circuit: "c", Inputs: 1, Outputs: 1}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if err := j.Append(JournalRecord{Iteration: i, DIP: "0", Oracle: "1"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(path, bytes.TrimSuffix(buf.Bytes(), []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	w, data, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if !data.Truncated || len(data.Records) != 1 {
		t.Fatalf("unterminated record: truncated=%v records=%d, want true/1", data.Truncated, len(data.Records))
	}
	if err := w.Append(JournalRecord{Iteration: len(data.Records) + 1, DIP: "1", Oracle: "0"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	reread, err := ReadJournal(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("journal corrupt after resuming past an unterminated record: %v", err)
	}
	if reread.Truncated || len(reread.Records) != 2 || reread.Records[1].DIP != "1" {
		t.Errorf("resumed journal: truncated=%v records=%+v", reread.Truncated, reread.Records)
	}
}

// TestJournalResumeZeroRequeriesC17 is the acceptance check: killing a
// c17 attack after k DIPs and resuming re-issues zero oracle queries
// for the journaled DIPs and recovers the same key.
func TestJournalResumeZeroRequeriesC17(t *testing.T) {
	testJournalResumeZeroRequeries(t, c17Fixture(t))
}

// TestJournalResumeZeroRequeriesC432 does the same on the synthesized
// c432 profile with an 8x8 routing block (the regression pin's shape).
func TestJournalResumeZeroRequeriesC432(t *testing.T) {
	if testing.Short() {
		t.Skip("c432 resume sweep in -short mode")
	}
	orig := c432Profile(t)
	testJournalResumeZeroRequeries(t, rilFixture(t, orig, core.Size8x8, 432))
}

func testJournalResumeZeroRequeries(t *testing.T, fx *fixture) {
	t.Helper()
	full, journal, totalQueries := attackWithJournal(t, fx, SATOptions{Timeout: 2 * time.Minute})
	if full.Status != KeyFound {
		t.Fatalf("uninterrupted attack did not converge: %v", full)
	}
	if full.Iterations != totalQueries {
		t.Fatalf("uninterrupted attack: %d iterations but %d queries", full.Iterations, totalQueries)
	}
	lines := strings.SplitAfter(string(journal), "\n")
	// lines: header, N dip records, done, "" — resume from every prefix
	// that ends after k complete dip records.
	for k := 0; k <= full.Iterations; k++ {
		prefix := strings.Join(lines[:1+k], "")
		data, err := ReadJournal(strings.NewReader(prefix))
		if err != nil {
			t.Fatalf("k=%d: reading truncated journal: %v", k, err)
		}
		if len(data.Records) != k || data.Done != nil {
			t.Fatalf("k=%d: parsed %d records done=%v", k, len(data.Records), data.Done)
		}
		oracle := fx.oracle(t)
		res, err := SATAttack(fx.locked, fx.keyPos, oracle, SATOptions{
			Timeout: 2 * time.Minute, Resume: data,
		})
		if err != nil {
			t.Fatalf("k=%d: resume: %v", k, err)
		}
		if res.Status != KeyFound {
			t.Fatalf("k=%d: resumed attack did not converge: %v", k, res)
		}
		if !bytesEqual(res.Key, full.Key) {
			t.Errorf("k=%d: resumed key %s != uninterrupted key %s", k, BitString(res.Key), BitString(full.Key))
		}
		if res.Replayed != k {
			t.Errorf("k=%d: replayed %d journaled DIPs", k, res.Replayed)
		}
		if res.Iterations != full.Iterations {
			t.Errorf("k=%d: resumed run took %d total iterations, uninterrupted took %d", k, res.Iterations, full.Iterations)
		}
		// The heart of the acceptance criterion: zero re-queries for
		// journaled DIPs, so this run queried exactly the remainder.
		if got, want := oracle.Queries(), totalQueries-k; got != want {
			t.Errorf("k=%d: resumed run made %d oracle queries, want %d (zero re-queries)", k, got, want)
		}
	}
}

// TestJournalCompatC432 resumes a checked-in journal written before
// the search version existed, by the solver before its clause-arena
// rewrite: the first 12 of the 24 DIP records of the c432 8x8 seed-432
// attack. Its header carries no search field (search 0), so the
// journaled DIPs resume by constraint replay: applied without solving
// and without re-querying the oracle for any of them.
func TestJournalCompatC432(t *testing.T) {
	raw, err := os.ReadFile("testdata/c432-8x8-432.journal")
	if err != nil {
		t.Fatal(err)
	}
	data, err := ReadJournal(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Records) != 12 || data.Done != nil || data.Truncated || data.Header.Search != 0 {
		t.Fatalf("fixture parsed as %d records, done=%v, truncated=%v, search=%d",
			len(data.Records), data.Done, data.Truncated, data.Header.Search)
	}
	fx := rilFixture(t, c432Profile(t), core.Size8x8, 432)
	oracle := fx.oracle(t)
	res, err := SATAttack(fx.locked, fx.keyPos, oracle, SATOptions{Timeout: goldenBudget, Resume: data})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	const key = "1000110100101100110001000001110111110001011100011111000100010111"
	if res.Status != KeyFound || BitString(res.Key) != key || res.Iterations != 24 {
		t.Errorf("resumed attack: %v iters=%d key=%s, want key-found iters=24 key=%s", res.Status, res.Iterations, BitString(res.Key), key)
	}
	if res.Replayed != 12 || oracle.Queries() != res.Iterations-12 {
		t.Errorf("replayed %d DIPs and queried the oracle %d times, want 12 and %d", res.Replayed, oracle.Queries(), res.Iterations-12)
	}
	fx.checkKey(t, "resumed", res.Key)
}

// rewriteJournal re-emits data's header and first k records through a
// Journal writer after edit has changed them, so every line carries a
// fresh CRC, and parses the result back.
func rewriteJournal(t *testing.T, data *JournalData, k int, edit func(*JournalHeader, []JournalRecord)) *JournalData {
	t.Helper()
	h, recs := data.Header, append([]JournalRecord(nil), data.Records[:k]...)
	edit(&h, recs)
	var buf bytes.Buffer
	j := NewJournal(&buf)
	if err := j.WriteHeader(h); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	out, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestJournalCompatSearchVersion resumes a mid-run prefix of a journal
// written by the current search three ways. Unmodified, it takes
// verified re-solving: the run continues exactly as the uninterrupted
// one, and a tampered Snapshot fails with ErrReplayDiverged. With the
// header's search field changed, the same tampered prefix resumes by
// constraint replay, which reads no snapshot, with zero re-queries and
// a functionally exact key.
func TestJournalCompatSearchVersion(t *testing.T) {
	fx := rilFixture(t, c432Profile(t), core.Size8x8, 432)
	full, raw, _ := attackWithJournal(t, fx, SATOptions{Timeout: goldenBudget})
	data, err := ReadJournal(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if data.Header.Search != SearchVersion {
		t.Fatalf("journal header records search %d, want %d", data.Header.Search, SearchVersion)
	}
	k := full.Iterations / 2
	same := func(*JournalHeader, []JournalRecord) {}
	tamper := func(_ *JournalHeader, recs []JournalRecord) { recs[k/2].Solver.Stats.Decisions++ }
	otherSearch := func(h *JournalHeader, recs []JournalRecord) { h.Search = SearchVersion + 1; tamper(h, recs) }

	oracle := fx.oracle(t)
	res, err := SATAttack(fx.locked, fx.keyPos, oracle, SATOptions{Timeout: goldenBudget, Resume: rewriteJournal(t, data, k, same)})
	if err != nil {
		t.Fatalf("same search: %v", err)
	}
	if res.Status != KeyFound || !bytesEqual(res.Key, full.Key) || res.Iterations != full.Iterations ||
		res.Replayed != k || oracle.Queries() != full.Iterations-k {
		t.Errorf("same search: %v (replayed %d, %d queries); want the uninterrupted run %v with %d replayed",
			res, res.Replayed, oracle.Queries(), full, k)
	}

	_, err = SATAttack(fx.locked, fx.keyPos, fx.oracle(t), SATOptions{Timeout: goldenBudget, Resume: rewriteJournal(t, data, k, tamper)})
	if !errors.Is(err, ErrReplayDiverged) {
		t.Errorf("same search, tampered snapshot: %v; want ErrReplayDiverged", err)
	}

	oracle = fx.oracle(t)
	res, err = SATAttack(fx.locked, fx.keyPos, oracle, SATOptions{Timeout: goldenBudget, Resume: rewriteJournal(t, data, k, otherSearch)})
	if err != nil {
		t.Fatalf("other search: %v", err)
	}
	if res.Status != KeyFound || res.Replayed != k || oracle.Queries() != res.Iterations-k {
		t.Errorf("other search: %v (replayed %d, %d queries); want key-found with %d replayed and no re-query",
			res, res.Replayed, oracle.Queries(), k)
	}
	fx.checkKey(t, "other search", res.Key)
}

// TestJournalResumeDoneShortCircuit resumes a finished journal: the
// result must be reconstructed without a single solver call or oracle
// query.
func TestJournalResumeDoneShortCircuit(t *testing.T) {
	fx := xorFixture(t, 60, 6, 301)
	full, journal, _ := attackWithJournal(t, fx, SATOptions{Timeout: time.Minute})
	if full.Status != KeyFound {
		t.Fatalf("attack did not converge: %v", full)
	}
	data, err := ReadJournal(bytes.NewReader(journal))
	if err != nil {
		t.Fatal(err)
	}
	if data.Done == nil {
		t.Fatal("finished attack wrote no done record")
	}
	oracle := fx.oracle(t)
	res, err := SATAttack(fx.locked, fx.keyPos, oracle, SATOptions{Timeout: time.Minute, Resume: data})
	if err != nil {
		t.Fatal(err)
	}
	if oracle.Queries() != 0 {
		t.Errorf("resuming a finished journal queried the oracle %d times", oracle.Queries())
	}
	if res.Status != KeyFound || !bytesEqual(res.Key, full.Key) {
		t.Errorf("reconstructed result differs: %v vs %v", res, full)
	}
	if res.Replayed != full.Iterations || res.Iterations != full.Iterations {
		t.Errorf("reconstructed counts differ: %+v vs %+v", res, full)
	}
}

// TestJournalResumeDoneOverBudget resumes a finished journal whose
// done record took 5 s, its DIP records 0.5 s apart. Under a 1 s
// budget that attack would not have finished: the result is Timeout
// with no key, after the DIPs journaled within the budget. With no
// budget, or one of 5 s or more, it is the journaled key. None of the
// resumes calls the solver or queries the oracle.
func TestJournalResumeDoneOverBudget(t *testing.T) {
	fx := xorFixture(t, 60, 6, 301)
	full, journal, _ := attackWithJournal(t, fx, SATOptions{Timeout: time.Minute})
	if full.Status != KeyFound || full.Iterations < 3 {
		t.Fatalf("want a key found after at least 3 DIPs, got %v", full)
	}
	data, err := ReadJournal(bytes.NewReader(journal))
	if err != nil {
		t.Fatal(err)
	}
	for k := range data.Records {
		data.Records[k].ElapsedMS = 500 * int64(k)
	}
	data.Done.ElapsedMS = 5000
	for _, c := range []struct {
		budget time.Duration
		want   Status
		dips   int
	}{
		{time.Second, Timeout, min(3, full.Iterations)},
		{4999 * time.Millisecond, Timeout, min(10, full.Iterations)},
		{0, KeyFound, full.Iterations},
		{5 * time.Second, KeyFound, full.Iterations},
		{time.Minute, KeyFound, full.Iterations},
	} {
		oracle := fx.oracle(t)
		calls := sat.SolveCallsTotal()
		res, err := SATAttack(fx.locked, fx.keyPos, oracle, SATOptions{Timeout: c.budget, Resume: data})
		if err != nil {
			t.Fatalf("budget %v: %v", c.budget, err)
		}
		if n := sat.SolveCallsTotal() - calls; n != 0 || oracle.Queries() != 0 {
			t.Errorf("budget %v: %d Solve calls and %d oracle queries, want none", c.budget, n, oracle.Queries())
		}
		if res.Status != c.want || res.Iterations != c.dips || res.Replayed != c.dips {
			t.Errorf("budget %v: %v (%d replayed), want %v after %d DIPs", c.budget, res, res.Replayed, c.want, c.dips)
		}
		if c.want == Timeout && res.Key != nil {
			t.Errorf("budget %v: timed-out result carries key %v", c.budget, res.Key)
		}
		if c.want == KeyFound && !bytesEqual(res.Key, full.Key) {
			t.Errorf("budget %v: key %v, want %v", c.budget, res.Key, full.Key)
		}
	}
}

// TestJournalResumeWrongCircuitRejected replays a journal against a
// different locked circuit; the header fingerprint must reject it.
func TestJournalResumeWrongCircuitRejected(t *testing.T) {
	fxA := xorFixture(t, 60, 6, 310)
	fxB := xorFixture(t, 60, 6, 320)
	_, journal, _ := attackWithJournal(t, fxA, SATOptions{Timeout: time.Minute})
	data, err := ReadJournal(bytes.NewReader(journal))
	if err != nil {
		t.Fatal(err)
	}
	_, err = SATAttack(fxB.locked, fxB.keyPos, fxB.oracle(t), SATOptions{Timeout: time.Minute, Resume: data})
	if !errors.Is(err, ErrReplayDiverged) {
		t.Errorf("cross-circuit resume error = %v, want ErrReplayDiverged", err)
	}
}

// TestJournalCrashInjectionProperty is the crash-injection property:
// for a spread of byte budgets, the attack dies mid-journal (torn
// final record included); resuming from whatever landed on "disk"
// recovers the same final key, and the durable pre-crash queries plus
// the resumed run's queries never exceed the uninterrupted run's
// count.
func TestJournalCrashInjectionProperty(t *testing.T) {
	fx := xorFixture(t, 70, 8, 330)
	full, journal, totalQueries := attackWithJournal(t, fx, SATOptions{Timeout: time.Minute})
	if full.Status != KeyFound {
		t.Fatalf("uninterrupted attack did not converge: %v", full)
	}
	if full.Iterations < 3 {
		t.Fatalf("fixture too easy (%d DIPs) to exercise truncation", full.Iterations)
	}
	step := len(journal)/17 + 1
	for budget := 1; budget < len(journal); budget += step {
		var disk bytes.Buffer
		fw := testutil.NewFaultyWriter(&disk, budget)
		oracle := fx.oracle(t)
		_, err := SATAttack(fx.locked, fx.keyPos, oracle, SATOptions{
			Timeout: time.Minute, Journal: NewJournal(fw),
		})
		if err == nil {
			// Budget outlived the attack: nothing crashed; skip.
			continue
		}
		if !errors.Is(err, testutil.ErrInjected) {
			t.Fatalf("budget=%d: attack failed with %v, want injected fault", budget, err)
		}

		// What survived the crash: a valid prefix, possibly torn.
		data, rerr := ReadJournal(bytes.NewReader(disk.Bytes()))
		var resume *JournalData
		if rerr == nil {
			resume = data
		} else if !errors.Is(rerr, ErrJournalCorrupt) {
			t.Fatalf("budget=%d: reading crashed journal: %v", budget, rerr)
		}
		durable := 0
		if resume != nil {
			durable = len(resume.Records)
		}

		o2 := fx.oracle(t)
		res, err := SATAttack(fx.locked, fx.keyPos, o2, SATOptions{
			Timeout: time.Minute, Resume: resume,
		})
		if err != nil {
			t.Fatalf("budget=%d: resume after crash: %v", budget, err)
		}
		if res.Status != KeyFound {
			t.Fatalf("budget=%d: resumed attack did not converge: %v", budget, res)
		}
		if !bytesEqual(res.Key, full.Key) {
			t.Errorf("budget=%d: resumed key %s != uninterrupted %s", budget, BitString(res.Key), BitString(full.Key))
		}
		if got := durable + o2.Queries(); got > totalQueries {
			t.Errorf("budget=%d: durable(%d) + resumed(%d) = %d oracle queries, uninterrupted needed %d",
				budget, durable, o2.Queries(), got, totalQueries)
		}
	}
}

// TestJournalContinuationMatchesFreshRun is the determinism check on a
// routed RIL-block circuit: write → truncate → replay → continue must
// reproduce the uninterrupted run's full DIP sequence and key, byte
// for byte, with the continuation appended to the same journal file.
func TestJournalContinuationMatchesFreshRun(t *testing.T) {
	orig := testutil.SmallCircuit(t, 80, 4)
	fx := rilFixture(t, orig, core.Size2x2, 9)
	full, journal, _ := attackWithJournal(t, fx, SATOptions{Timeout: 2 * time.Minute})
	if full.Status != KeyFound {
		t.Fatalf("uninterrupted attack did not converge: %v", full)
	}
	fullData, err := ReadJournal(bytes.NewReader(journal))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(journal), "\n")
	for _, k := range []int{0, 1, full.Iterations / 2, full.Iterations} {
		if k > full.Iterations {
			continue
		}
		dir := t.TempDir()
		path := filepath.Join(dir, "resume.journal")
		if err := os.WriteFile(path, []byte(strings.Join(lines[:1+k], "")), 0o644); err != nil {
			t.Fatal(err)
		}
		w, data, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		oracle := fx.oracle(t)
		res, err := SATAttack(fx.locked, fx.keyPos, oracle, SATOptions{
			Timeout: 2 * time.Minute, Journal: w, Resume: data,
		})
		if err != nil {
			t.Fatalf("k=%d: resumed attack: %v", k, err)
		}
		if res.Status != KeyFound || !bytesEqual(res.Key, full.Key) {
			t.Fatalf("k=%d: resumed result differs: %v vs %v", k, res, full)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		merged, err := ReadJournal(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("k=%d: merged journal corrupt: %v", k, err)
		}
		if len(merged.Records) != len(fullData.Records) {
			t.Fatalf("k=%d: merged journal has %d records, uninterrupted %d", k, len(merged.Records), len(fullData.Records))
		}
		for i := range merged.Records {
			m, f := merged.Records[i], fullData.Records[i]
			if m.Iteration != f.Iteration || m.DIP != f.DIP || m.Oracle != f.Oracle || m.Solver != f.Solver {
				t.Errorf("k=%d: record %d differs:\n  merged: %+v\n  fresh : %+v", k, i, m, f)
			}
		}
		if merged.Done == nil || merged.Done.Key != BitString(full.Key) {
			t.Errorf("k=%d: merged done record wrong: %+v", k, merged.Done)
		}
	}
}

func bytesEqual(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
