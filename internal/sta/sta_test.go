package sta

import (
	"testing"

	"repro/internal/core"
	"repro/internal/netlist"
)

// UnitDelay charges one unit per logic level.
func UnitDelay(t netlist.GateType, fanin int) float64 {
	switch t {
	case netlist.Input, netlist.Const0, netlist.Const1:
		return 0
	}
	return 1
}

func chain(t *testing.T, depth int) *netlist.Netlist {
	t.Helper()
	n := netlist.New("chain")
	cur := n.AddInput("a")
	other := n.AddInput("b")
	for i := 0; i < depth; i++ {
		cur = n.AddGate(n.FreshName("g"), netlist.Nand, cur, other)
	}
	n.MarkOutput(cur)
	return n
}

func TestUnitDelayEqualsDepth(t *testing.T) {
	n := chain(t, 7)
	res, err := Analyze(n, UnitDelay)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delay != 7 {
		t.Errorf("unit delay %v, want 7", res.Delay)
	}
	if len(res.CriticalPath) != 8 { // input + 7 gates
		t.Errorf("critical path length %d, want 8", len(res.CriticalPath))
	}
	// The path must be topologically connected.
	for i := 1; i < len(res.CriticalPath); i++ {
		g := n.Gates[res.CriticalPath[i]]
		ok := false
		for _, f := range g.Fanin {
			if f == res.CriticalPath[i-1] {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("critical path broken at %d", i)
		}
	}
}

func TestTechDelayOrdering(t *testing.T) {
	if !(TechDelay(netlist.Not, 1) < TechDelay(netlist.Nand, 2)) {
		t.Error("inverter should be fastest")
	}
	if !(TechDelay(netlist.Nand, 2) < TechDelay(netlist.Xor, 2)) {
		t.Error("XOR should cost more than NAND")
	}
	if !(TechDelay(netlist.Nand, 2) < TechDelay(netlist.Nand, 4)) {
		t.Error("wide gates should pay a fanin penalty")
	}
	if TechDelay(netlist.Input, 0) != 0 {
		t.Error("inputs are free")
	}
}

func TestAreaCounts(t *testing.T) {
	n := netlist.New("a")
	a := n.AddInput("a")
	b := n.AddInput("b")
	g := n.AddGate("g", netlist.Nand, a, b) // 4 T
	h := n.AddGate("h", netlist.Not, g)     // 2 T
	n.MarkOutput(h)
	if got := Area(n); got != 6 {
		t.Errorf("area %d, want 6", got)
	}
}

func TestSwitchingActivityBounds(t *testing.T) {
	nl, err := netlist.Random(netlist.RandomProfile{
		Name: "s", Inputs: 12, Outputs: 6, Gates: 150, Locality: 0.6,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	act, power, err := SwitchingActivity(nl, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if power <= 0 {
		t.Error("zero power proxy on a live circuit")
	}
	for id, a := range act {
		if a < 0 || a > 1 {
			t.Fatalf("activity[%d] = %v out of [0,1]", id, a)
		}
	}
}

func TestLockedPPAOverheadPositiveAndModest(t *testing.T) {
	orig, err := netlist.Random(netlist.RandomProfile{
		Name: "p", Inputs: 20, Outputs: 10, Gates: 900, Locality: 0.7,
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Lock(orig, core.Options{Blocks: 3, Size: core.Size8x8x8, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	bound, err := res.ApplyKey(res.Key)
	if err != nil {
		t.Fatal(err)
	}
	po, err := Measure(orig, 7)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := Measure(bound, 7)
	if err != nil {
		t.Fatal(err)
	}
	dDelay, dArea, dPower := Overhead(po, pl)
	if dArea <= 0 {
		t.Errorf("area overhead %v should be positive", dArea)
	}
	// The paper's small-overhead claim: a few blocks on a ~900-gate
	// circuit stay under 100% area overhead and do not explode delay.
	if dArea > 1.0 {
		t.Errorf("area overhead %.2f implausibly high", dArea)
	}
	if dDelay < -0.01 {
		t.Errorf("locked circuit got faster (%v) — timing model broken", dDelay)
	}
	_ = dPower
}

func TestMeasureNeedsValidNetlist(t *testing.T) {
	n := netlist.New("bad")
	a := n.AddInput("a")
	// A combinational self-loop: gate 1 reads itself.
	n.Gates = append(n.Gates, netlist.Gate{Name: "loop", Type: netlist.Not, Fanin: []int{1}})
	n.MarkOutput(1)
	_ = a
	if _, err := Analyze(n, UnitDelay); err == nil {
		t.Error("cyclic netlist accepted")
	}
}
