package fault

import (
	"testing"

	"repro/internal/core"
	"repro/internal/netlist"
)

func fullAdder(t *testing.T) *netlist.Netlist {
	t.Helper()
	n := netlist.New("fa")
	a := n.AddInput("a")
	b := n.AddInput("b")
	cin := n.AddInput("cin")
	axb := n.AddGate("axb", netlist.Xor, a, b)
	sum := n.AddGate("sum", netlist.Xor, axb, cin)
	ab := n.AddGate("ab", netlist.And, a, b)
	cx := n.AddGate("cx", netlist.And, axb, cin)
	cout := n.AddGate("cout", netlist.Or, ab, cx)
	n.MarkOutput(sum)
	n.MarkOutput(cout)
	return n
}

func TestFullAdderFullCoverage(t *testing.T) {
	nl := fullAdder(t)
	// 64 random patterns over 3 inputs include all 8 at this seed.
	res, err := RandomPatternCoverage(nl, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage() != 1.0 {
		t.Errorf("full adder coverage %.2f, want 1.0 (%s)", res.Coverage(), res)
	}
	if res.Total != 16 { // 8 fault sites x 2 polarities
		t.Errorf("fault universe %d, want 16", res.Total)
	}
}

// redundant returns y = a OR (a AND NOT a): the AND output is constant
// 0, so its SA0 fault can never be detected.
func redundant() *netlist.Netlist {
	n := netlist.New("red")
	a := n.AddInput("a")
	na := n.AddGate("na", netlist.Not, a)
	and := n.AddGate("and", netlist.And, a, na)
	n.MarkOutput(n.AddGate("y", netlist.Or, a, and))
	return n
}

// random300 returns the fault tests' random 16-input, 300-gate netlist.
func random300(t *testing.T, name string, seed int64) *netlist.Netlist {
	t.Helper()
	nl, err := netlist.Random(netlist.RandomProfile{
		Name: name, Inputs: 16, Outputs: 8, Gates: 300, Locality: 0.6,
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

// lockedViews returns a random netlist, its 8x8 RIL lock with the
// correct key bound, and the lock's scan-mode view with the key bound.
func lockedViews(t *testing.T) (orig, bound, scan *netlist.Netlist) {
	t.Helper()
	orig = random300(t, "t", 9)
	res, err := core.Lock(orig, core.Options{Blocks: 1, Size: core.Size8x8, Seed: 10, ScanEnable: true})
	if err != nil {
		t.Fatal(err)
	}
	if bound, err = res.ApplyKey(res.Key); err != nil {
		t.Fatal(err)
	}
	sv, err := res.ScanView()
	if err != nil {
		t.Fatal(err)
	}
	if scan, err = sv.BindInputs(res.KeyInputPos, res.Key); err != nil {
		t.Fatal(err)
	}
	return orig, bound, scan
}

func TestRedundantFaultUndetectable(t *testing.T) {
	res, err := RandomPatternCoverage(redundant(), 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage() == 1.0 {
		t.Error("redundant fault reported detected")
	}
}

func TestRandomPatternCoverageGrowsWithPatterns(t *testing.T) {
	nl := random300(t, "f", 5)
	few, err := RandomPatternCoverage(nl, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	many, err := RandomPatternCoverage(nl, 512, 1)
	if err != nil {
		t.Fatal(err)
	}
	if many.Detected < few.Detected {
		t.Errorf("coverage shrank with more patterns: %s vs %s", few, many)
	}
	if many.Coverage() < 0.7 {
		t.Errorf("512 random patterns cover only %.2f — simulator suspicious", many.Coverage())
	}
}

func TestLockedCircuitRemainsTestable(t *testing.T) {
	// §III-C: with the correct key installed (and the SE contents
	// known), the locked design is as testable as the original.
	orig, bound, svBound := lockedViews(t)
	origCov, err := RandomPatternCoverage(orig, 512, 2)
	if err != nil {
		t.Fatal(err)
	}
	lockCov, err := RandomPatternCoverage(bound, 512, 2)
	if err != nil {
		t.Fatal(err)
	}
	if lockCov.Coverage() < origCov.Coverage()-0.15 {
		t.Errorf("locking collapsed coverage: %s -> %s", origCov, lockCov)
	}

	// Scan-mode view (SE asserted): inversions do not reduce
	// detectability — the designer de-corrupts responses.
	scanCov, err := RandomPatternCoverage(svBound, 512, 2)
	if err != nil {
		t.Fatal(err)
	}
	if scanCov.Coverage() < lockCov.Coverage()-0.1 {
		t.Errorf("scan-enable layer collapsed coverage: %s -> %s", lockCov, scanCov)
	}
}

// TestCoveragePins pins the detected and total fault counts of the
// circuits above, as the simulator counted them before it was compiled
// into a flat program; 100 patterns end on a partial batch.
func TestCoveragePins(t *testing.T) {
	orig, bound, scan := lockedViews(t)
	rnd := random300(t, "f", 5)
	for _, c := range []struct {
		name             string
		nl               *netlist.Netlist
		patterns         int
		seed             int64
		detected, faults int
	}{
		{"full adder", fullAdder(t), 64, 1, 16, 16},
		{"redundant", redundant(), 64, 1, 5, 8},
		{"random 8", rnd, 8, 1, 382, 632},
		{"random 100", rnd, 100, 1, 493, 632},
		{"random 512", rnd, 512, 1, 507, 632},
		{"original", orig, 512, 2, 428, 632},
		{"locked", bound, 512, 2, 496, 792},
		{"scan view", scan, 512, 2, 545, 800},
	} {
		res, err := RandomPatternCoverage(c.nl, c.patterns, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		if res.Detected != c.detected || res.Total != c.faults {
			t.Errorf("%s: %d/%d faults detected, want %d/%d", c.name, res.Detected, res.Total, c.detected, c.faults)
		}
	}
}

func TestEnumerateSkipsConstants(t *testing.T) {
	n := netlist.New("c")
	a := n.AddInput("a")
	c0 := n.AddGate("c0", netlist.Const0)
	g := n.AddGate("g", netlist.Or, a, c0)
	n.MarkOutput(g)
	faults := Enumerate(n)
	for _, f := range faults {
		if f.Gate == c0 {
			t.Error("constant gate enumerated as fault site")
		}
	}
	if len(faults) != 4 { // a, g x 2 polarities
		t.Errorf("fault count %d, want 4", len(faults))
	}
}

func TestFaultString(t *testing.T) {
	f := Fault{Gate: 12, Stuck: true}
	if f.String() != "12/SA1" {
		t.Errorf("String = %q", f.String())
	}
}
