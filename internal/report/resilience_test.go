package report

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// The audit table must produce one row per configuration, catch the
// planted redundancy in the last row, and never print a failed oracle
// cross-check — a "FAIL" cell would mean the audit pruned a key bit
// the oracle can still observe, which is exactly the unsoundness the
// sampled-proof demotion exists to prevent.
func TestResilienceTable(t *testing.T) {
	cfg := AttackConfig{Timeout: 200 * time.Millisecond, Scale: 0.12, Seed: 1}
	tb := coldWarmResumed(t, cfg, ResilienceTable)
	if len(tb.Rows) != 4 {
		t.Fatalf("got %d rows, want 4:\n%s", len(tb.Rows), tb.String())
	}
	for _, row := range tb.Rows {
		if len(row) != len(tb.Header) {
			t.Fatalf("row width %d != header width %d: %v", len(row), len(tb.Header), row)
		}
		if strings.Contains(row[7], "FAIL") {
			t.Errorf("oracle cross-check failed — audit pruned an oracle-relevant bit: %v", row)
		}
	}
	planted := tb.Rows[len(tb.Rows)-1]
	if planted[2] == "n/a" {
		t.Fatalf("planted row did not lock: %v", planted)
	}
	nominal, err := strconv.Atoi(planted[2])
	if err != nil {
		t.Fatal(err)
	}
	effective, err := strconv.Atoi(planted[3])
	if err != nil {
		t.Fatal(err)
	}
	if effective >= nominal {
		t.Errorf("planted redundancy not caught: effective %d of %d nominal", effective, nominal)
	}
}
