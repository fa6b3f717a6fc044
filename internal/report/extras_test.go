package report

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestPPATableShape(t *testing.T) {
	cfg := fastCfg()
	cfg.Scale = 0.2
	tb, err := PPATable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("ppa rows = %d, want 5 (original, 3 locked configs, resynth)", len(tb.Rows))
	}
	if tb.Rows[0][0] != "original" {
		t.Error("first row must be the baseline")
	}
	// Locked (non-resynthesized) rows carry positive area overhead.
	for _, row := range tb.Rows[1:] {
		if row[6] == "-" || row[6] == "n/a" || strings.Contains(row[0], "resynth") {
			continue
		}
		if !strings.HasPrefix(row[6], "+") {
			t.Errorf("area overhead %q should be positive for %s", row[6], row[0])
		}
	}
	// The activated+resynthesized row must sit close to the original.
	for _, row := range tb.Rows {
		if strings.Contains(row[0], "resynth") {
			if strings.HasPrefix(row[6], "+") && !strings.HasPrefix(row[6], "+0") &&
				!strings.HasPrefix(row[6], "+1.") && !strings.HasPrefix(row[6], "+2.") &&
				!strings.HasPrefix(row[6], "+3.") && !strings.HasPrefix(row[6], "+4.") {
				t.Errorf("resynthesized area overhead %q not near zero", row[6])
			}
		}
	}
}

func TestLUTSizeTableShape(t *testing.T) {
	if testing.Short() {
		t.Skip("lut sweep in -short mode")
	}
	cfg := fastCfg()
	cfg.Scale = 0.1
	cfg.Timeout = 2 * time.Second
	tb := coldWarmResumed(t, cfg, func(cfg AttackConfig) (*Table, error) { return LUTSizeTable(cfg, 4) })
	if len(tb.Rows) != 3 {
		t.Fatalf("lutsize rows = %d, want 3", len(tb.Rows))
	}
	// Key bits double per size step; transistors-per-key-bit shrink.
	prevKeyBits, prevTPerBit := 0, 1e18
	for _, row := range tb.Rows {
		kb, err := strconv.Atoi(row[1])
		if err != nil {
			t.Fatalf("bad key bits %q", row[1])
		}
		if kb <= prevKeyBits {
			t.Errorf("key bits not growing: %v", row)
		}
		prevKeyBits = kb
		tpb, err := strconv.ParseFloat(row[7], 64)
		if err != nil {
			t.Fatalf("bad T/key bit %q", row[7])
		}
		if tpb >= prevTPerBit {
			t.Errorf("transistors per key bit not shrinking: %v", row)
		}
		prevTPerBit = tpb
	}
}

func TestSensitizationTable(t *testing.T) {
	if testing.Short() {
		t.Skip("sensitization sweep in -short mode")
	}
	cfg := fastCfg()
	cfg.Timeout = 5 * time.Second
	tb := coldWarmResumed(t, cfg, Sensitization)
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	rilResolved, err := strconv.Atoi(tb.Rows[1][2])
	if err != nil {
		t.Fatal(err)
	}
	rilBits, _ := strconv.Atoi(tb.Rows[1][1])
	if rilResolved > rilBits/4 {
		t.Errorf("sensitization resolved %d/%d RIL bits", rilResolved, rilBits)
	}
}
