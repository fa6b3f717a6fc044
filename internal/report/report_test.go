package report

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/cache"
	"repro/internal/sat"
)

func fastCfg() AttackConfig {
	return AttackConfig{Timeout: 500 * time.Millisecond, Scale: 0.06, Seed: 1}
}

// coldWarm runs a table cold into a fresh cache, then warm from it.
// The warm run must return the cold table and issue no oracle query
// and no solver call. It returns the cold table for the caller's own
// assertions.
func coldWarm(t *testing.T, cfg AttackConfig, table func(AttackConfig) (*Table, error)) *Table {
	t.Helper()
	c, err := cache.Open(t.TempDir(), cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cache = c
	want, err := table(cfg)
	if err != nil {
		t.Fatal(err)
	}
	q0, s0 := attack.OracleQueriesTotal(), sat.SolveCallsTotal()
	got, err := table(cfg)
	if err != nil {
		t.Fatalf("warm run: %v", err)
	}
	if dq, ds := attack.OracleQueriesTotal()-q0, sat.SolveCallsTotal()-s0; dq != 0 || ds != 0 {
		t.Errorf("warm run made %d oracle queries and %d solver calls, want 0", dq, ds)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("warm table differs from the cold one:\ncold:\n%s\nwarm:\n%s", want, got)
	}
	return want
}

func TestTableFormatting(t *testing.T) {
	tb := &Table{Title: "demo", Header: []string{"a", "bb"}}
	tb.AddRow("1", "2")
	tb.AddRow("333", "4")
	s := tb.String()
	if !strings.Contains(s, "demo") || !strings.Contains(s, "333") {
		t.Errorf("table string incomplete:\n%s", s)
	}
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != 3 {
		t.Errorf("CSV has %d lines, want 3", got)
	}
}

func TestTable1SmallSweep(t *testing.T) {
	tb, err := Table1(fastCfg(), []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if len(row) != 4 {
			t.Fatalf("row width %d, want 4: %v", len(row), row)
		}
		for _, cell := range row[1:] {
			if cell == "" {
				t.Error("empty cell")
			}
		}
	}
}

func TestTable1Shape(t *testing.T) {
	// The headline claim at miniature scale: with enough 8x8x8 blocks
	// the attack times out while the baseline cases complete.
	cfg := fastCfg()
	cfg.Timeout = time.Second
	tb, err := Table1(cfg, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	row := tb.Rows[0]
	if row[3] != "inf" {
		t.Logf("3 blocks of 8x8x8 solved at this scale (%s) — acceptable on tiny circuits, shape checked in benches", row[3])
	}
}

func TestTable2Complete(t *testing.T) {
	tb := Table2()
	if len(tb.Rows) != 16 {
		t.Fatalf("Table II rows = %d, want 16", len(tb.Rows))
	}
	// Spot-check the paper's AND row: K1..K4 = 1,0,0,0.
	found := false
	for _, row := range tb.Rows {
		if row[0] == "A AND B" {
			found = true
			if row[1] != "1" || row[2] != "0" || row[3] != "0" || row[4] != "0" {
				t.Errorf("AND row = %v, want 1 0 0 0", row[1:])
			}
		}
	}
	if !found {
		t.Error("AND row missing")
	}
}

func TestTable4Energies(t *testing.T) {
	tb, err := Table4(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("Table IV rows = %d, want 3", len(tb.Rows))
	}
	avg := tb.Rows[2]
	if !strings.Contains(avg[1], "fJ") {
		t.Errorf("read energy %q not in fJ", avg[1])
	}
	if !strings.Contains(avg[2], "fJ") {
		t.Errorf("write energy %q not in fJ", avg[2])
	}
	if !strings.Contains(avg[3], "aJ") {
		t.Errorf("standby energy %q not in aJ", avg[3])
	}
}

func TestFig6Table(t *testing.T) {
	tb, res := Fig6(50, 3)
	if len(tb.Rows) != 6 {
		t.Fatalf("Fig6 rows = %d, want 6", len(tb.Rows))
	}
	if res.ReadErrors != 0 || res.WriteErrors != 0 {
		t.Errorf("PV errors: %d read, %d write", res.ReadErrors, res.WriteErrors)
	}
	if res.MarginSeparation() <= 0 {
		t.Error("R_P/R_AP distributions must not overlap")
	}
}

func TestFig5CSV(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig5(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "t_ns,") {
		t.Error("Fig5 CSV header missing")
	}
	if strings.Count(buf.String(), "\n") < 10 {
		t.Error("Fig5 waveform suspiciously short")
	}
}

func TestOverheadTable(t *testing.T) {
	tb := OverheadTable()
	if len(tb.Rows) != 2 {
		t.Fatalf("overhead rows = %d", len(tb.Rows))
	}
	if len(tb.Notes) == 0 || !strings.Contains(tb.Notes[0], "x in favour") {
		t.Errorf("missing ratio note: %v", tb.Notes)
	}
}

func TestPSCATable(t *testing.T) {
	tb, err := PSCATable(200, 0.05, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("psca rows = %d, want 2", len(tb.Rows))
	}
	// SRAM row must recover all keys; MRAM row must not.
	if !strings.HasPrefix(tb.Rows[0][1], "6/6") {
		t.Errorf("SRAM CPA recovered %s, want 6/6", tb.Rows[0][1])
	}
	if strings.HasPrefix(tb.Rows[1][1], "6/6") {
		t.Errorf("MRAM CPA recovered %s — should fail", tb.Rows[1][1])
	}
}

func TestFig1Encodings(t *testing.T) {
	cfg := fastCfg()
	cfg.Timeout = 5 * time.Second
	tb := coldWarm(t, cfg, func(cfg AttackConfig) (*Table, error) { return Fig1(cfg, 4) })
	if len(tb.Rows) != 2 {
		t.Fatalf("fig1 rows = %d", len(tb.Rows))
	}
	if tb.Rows[0][0] != "meso" || tb.Rows[1][0] != "meso-as-lut2" {
		t.Errorf("unexpected row labels %v / %v", tb.Rows[0][0], tb.Rows[1][0])
	}
}

func TestTable5Matrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full attack matrix in -short mode")
	}
	cfg := fastCfg()
	cfg.Scale = 0.12
	tb := coldWarm(t, cfg, Table5)
	if len(tb.Rows) != 6 {
		t.Fatalf("Table V rows = %d, want 6", len(tb.Rows))
	}
	// The proposed scheme (last column) must be resilient in every
	// applicable row.
	last := len(tb.Header) - 1
	for _, row := range tb.Rows {
		if row[last] == "x" {
			t.Errorf("proposed scheme broken by %q:\n%s", row[0], tb.String())
		}
	}
	// XOR locking (column before last) must fall to the SAT attack.
	if tb.Rows[0][last-1] != "x" {
		t.Errorf("XOR locking should fall to SAT:\n%s", tb.String())
	}
}

func TestTable3Small(t *testing.T) {
	if testing.Short() {
		t.Skip("table3 sweep in -short mode")
	}
	cfg := fastCfg()
	tb, err := Table3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 10 {
		t.Fatalf("Table III rows = %d, want 10", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if row[5] == "yes" {
			t.Errorf("AppSAT succeeded on %s under scan-enable obfuscation", row[1])
		}
	}
}

func TestDIPGrowth(t *testing.T) {
	cfg := fastCfg()
	tb, err := DIPGrowth(cfg, []int{4, 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatal("row count")
	}
}
