package report

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweep in -short mode")
	}
	cfg := fastCfg()
	cfg.Timeout = time.Second
	tb := coldWarm(t, cfg, Ablation)
	if len(tb.Rows) != 5 {
		t.Fatalf("ablation rows = %d, want 5", len(tb.Rows))
	}
	// The LUT-only rows must be solved; the hardest row must not be
	// easier than the easiest.
	if tb.Rows[0][4] != "key-found" {
		t.Errorf("plain LUT-lock should fall: %v", tb.Rows[0])
	}
	if tb.Rows[4][4] == "key-found" && tb.Rows[0][4] != "key-found" {
		t.Errorf("3x 8x8x8 easier than LUT-only:\n%s", tb.String())
	}
}

func TestOneHotEncodingTable(t *testing.T) {
	if testing.Short() {
		t.Skip("one-hot sweep in -short mode")
	}
	cfg := fastCfg()
	cfg.Scale = 0.1
	cfg.Timeout = 2 * time.Second
	tb := coldWarm(t, cfg, OneHotEncoding)
	if len(tb.Rows) != 4 {
		t.Fatalf("one-hot rows = %d, want 4", len(tb.Rows))
	}
	// Row 1: one-hot attack on the routing-only lock must succeed with
	// a correct key.
	if tb.Rows[1][3] != "key-found" || tb.Rows[1][4] != "yes" {
		t.Errorf("one-hot attack failed on routing-only lock:\n%s", tb.String())
	}
}

func TestDynamicMorphingTable(t *testing.T) {
	if testing.Short() {
		t.Skip("dynamic sweep in -short mode")
	}
	cfg := fastCfg()
	cfg.Timeout = 3 * time.Second
	tb := coldWarm(t, cfg, func(cfg AttackConfig) (*Table, error) { return DynamicMorphing(cfg, 2) })
	if len(tb.Rows) != 2 {
		t.Fatalf("dynamic rows = %d, want 2", len(tb.Rows))
	}
	// Neither oracle mode may yield a functionally correct key.
	for _, row := range tb.Rows {
		if row[5] == "yes" {
			t.Errorf("attack recovered a functional key through the scan oracle:\n%s", tb.String())
		}
	}
	// The "oracle queries" column reports attack queries only: at
	// least one per DIP, snapshotted before key validation.
	for _, row := range tb.Rows {
		dips, err1 := strconv.Atoi(row[1])
		queries, err2 := strconv.Atoi(row[2])
		if err1 != nil || err2 != nil || queries < dips {
			t.Errorf("oracle-query column %q inconsistent with %q DIPs: %v", row[2], row[1], row)
		}
	}
	// The morphing row must have advanced at least one epoch unless the
	// attack finished immediately.
	if tb.Rows[1][3] == "0" && !strings.Contains(tb.Rows[1][4], "key-found") {
		t.Logf("no morph epochs elapsed: %v", tb.Rows[1])
	}
}
