package baselines

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/netlist"
)

func wideCirc(t *testing.T, seed int64) *netlist.Netlist {
	t.Helper()
	nl, err := netlist.Random(netlist.RandomProfile{
		Name: "w", Inputs: 16, Outputs: 12, Gates: 300, Locality: 0.3,
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

func TestRoutingLockSelfChecks(t *testing.T) {
	orig := wideCirc(t, 31)
	l, net, err := RoutingLock(orig, 8, 32)
	if err != nil {
		t.Fatal(err)
	}
	if l.Scheme != "routing8" {
		t.Errorf("scheme %q", l.Scheme)
	}
	if net.Width != 8 || len(net.KeyPos) != core.BanyanSwitchCount(8) {
		t.Errorf("network %+v", net)
	}
	// The network descriptor must reference real gates.
	for _, n := range append(append([]string(nil), net.InputNames...), net.OutputNames...) {
		if _, ok := l.Netlist.GateID(n); !ok {
			t.Fatalf("network references missing gate %q", n)
		}
	}
}

func TestRoutingLockWidths(t *testing.T) {
	orig := wideCirc(t, 33)
	for _, w := range []int{2, 4, 8} {
		if _, _, err := RoutingLock(orig, w, 34); err != nil {
			t.Errorf("width %d: %v", w, err)
		}
	}
	if _, _, err := RoutingLock(orig, 3, 1); err == nil {
		t.Error("width 3 accepted")
	}
	if _, _, err := RoutingLock(orig, 0, 1); err == nil {
		t.Error("width 0 accepted")
	}
	// A tiny circuit cannot host a wide network.
	small, err := netlist.Random(netlist.RandomProfile{
		Name: "tiny", Inputs: 4, Outputs: 2, Gates: 6, Locality: 0.2,
	}, 35)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RoutingLock(small, 16, 36); err == nil {
		t.Error("16-wide network on a 6-gate circuit accepted")
	}
}

func TestRoutingLockDeterministic(t *testing.T) {
	orig := wideCirc(t, 37)
	a, _, err := RoutingLock(orig, 4, 38)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := RoutingLock(orig, 4, 38)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Key {
		if a.Key[i] != b.Key[i] {
			t.Fatal("nondeterministic")
		}
	}

	// A width-8 lock's .bench text followed by its key bits, pinned
	// before the tap search walked cones over shared fanout lists.
	w8, _, err := RoutingLock(orig, 8, 38)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := w8.Netlist.WriteBench(&buf); err != nil {
		t.Fatal(err)
	}
	for _, k := range w8.Key {
		buf.WriteByte(map[bool]byte{false: '0', true: '1'}[k])
	}
	const want = "fb411af82fba5abeea02c84ed619d20fde93d24f8bb497624f73fbc0c3ed3122"
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Errorf("width-8 routing lock SHA-256 %s, want %s", got, want)
	}
}

func TestLUTLockCorruptsOnWrongKey(t *testing.T) {
	orig := wideCirc(t, 42)
	l, err := LUTLock(orig, 8, 43)
	if err != nil {
		t.Fatal(err)
	}
	if l.KeyBits() != 32 {
		t.Errorf("8 LUT2s should carry 32 key bits, got %d", l.KeyBits())
	}
	wrong := append([]bool(nil), l.Key...)
	for i := range wrong {
		wrong[i] = !wrong[i]
	}
	bound, err := l.Netlist.BindInputs(l.KeyPos, wrong)
	if err != nil {
		t.Fatal(err)
	}
	c, err := netlist.OutputCorruptibility(orig, bound, 16, 44)
	if err != nil {
		t.Fatal(err)
	}
	if c < 0.02 {
		t.Errorf("complemented LUT tables corrupt only %.3f of outputs", c)
	}
}
