package attack

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"
	"time"

	"repro/internal/baselines"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/netlist"
)

// Golden pins for every attack built on the shared miter and DIP loop,
// recorded from the per-attack loops that kernel replaced. They must
// match bit for bit: sat.Stats moves with any change to the clause
// stream, the variable numbering or the Solve/assumption order, so
// matching stats prove all three unchanged. Every run finishes far
// inside its budget, so no pin depends on timing.

const goldenBudget = 2 * time.Minute

// routedRILFixture locks the 120-gate circuit with one 2x2 block whose
// input and output routing are both on — small enough for the one-hot
// re-encoding to converge.
func routedRILFixture(t *testing.T) (*core.Result, *fixture) {
	t.Helper()
	res, err := core.Lock(smallCircuit(t, 120, 57), core.Options{
		Blocks: 1, Size: core.Size{K: 2, InputRouting: true, OutputRouting: true}, Seed: 58,
	})
	if err != nil {
		t.Fatal(err)
	}
	bound, err := res.ApplyKey(res.Key)
	if err != nil {
		t.Fatal(err)
	}
	return res, &fixture{locked: res.Locked, keyPos: res.KeyInputPos, bound: bound}
}

// c7552Fixture locks c7552 at scale 0.1 with five 2x2 blocks (seed 2),
// a cell of Table I's 2x2 row.
func c7552Fixture(t *testing.T) *fixture {
	t.Helper()
	prof, _ := circuit.ProfileByName("c7552")
	orig, err := prof.Synthesize(0.1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Lock(orig, core.Options{Blocks: 5, Size: core.Size2x2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	bound, err := res.ApplyKey(res.Key)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{locked: res.Locked, keyPos: res.KeyInputPos, bound: bound}
}

// routingOnlyFixture is the FullLock-style 8-wide routing lock the
// one-hot re-encoding breaks, plus its network hint.
func routingOnlyFixture(t *testing.T) (*fixture, []RoutingHint) {
	t.Helper()
	orig, err := netlist.Random(netlist.RandomProfile{
		Name: "rl", Inputs: 16, Outputs: 12, Gates: 300, Locality: 0.3,
	}, 51)
	if err != nil {
		t.Fatal(err)
	}
	l, net, err := baselines.RoutingLock(orig, 8, 52)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := l.Netlist.BindInputs(l.KeyPos, l.Key)
	if err != nil {
		t.Fatal(err)
	}
	hint := HintFromRoutingNetwork(net.Width, net.InputNames, net.OutputNames, net.KeyPos)
	return &fixture{locked: l.Netlist, keyPos: l.KeyPos, bound: bound}, []RoutingHint{hint}
}

// scanFixture locks with the scan-enable layer on and answers through
// the scan view: the corrupted oracle of paper Table III.
func scanFixture(t *testing.T) *fixture {
	t.Helper()
	res, err := core.Lock(smallCircuit(t, 120, 12), core.Options{Blocks: 1, Size: core.Size8x8, Seed: 13, ScanEnable: true})
	if err != nil {
		t.Fatal(err)
	}
	sv, err := res.ScanView()
	if err != nil {
		t.Fatal(err)
	}
	bound, err := sv.BindInputs(res.KeyInputPos, res.Key)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{locked: res.Locked, keyPos: res.KeyInputPos, bound: bound}
}

func checkGolden(t *testing.T, name, got, want string) {
	t.Helper()
	if got != want {
		t.Errorf("%s:\n got  %s\n want %s", name, got, want)
	}
}

func TestGoldenSATAttack(t *testing.T) {
	cases := []struct {
		name string
		fx   func(t *testing.T) *fixture
		bva  bool
		want string
	}{
		{"c17/2x2/17", c17Fixture, false,
			"key-found iters=7 key=001110111 trace=42dda5a830742b6d7c0d8e63019bf1064b8d8d4d2186dc90da45a5414d01fcea solver=decisions=128 propagations=1121 conflicts=15 restarts=0 learnt=15 removed=0 maxdepth=23"},
		{"c432/8x8/432", func(t *testing.T) *fixture { return rilFixture(t, c432Profile(t), core.Size8x8, 432) }, false,
			"key-found iters=24 key=1001110100101100100001001101010011111000011100011110000100010111 trace=0b4cc41ccd7a34eeb3ba4030bd079d5f80072149ed36b7a1e97d5a0e6c82cc9c solver=decisions=11520 propagations=413754 conflicts=1814 restarts=5 learnt=1814 removed=0 maxdepth=178"},
		{"small80/2x2/9", func(t *testing.T) *fixture { return rilFixture(t, smallCircuit(t, 80, 4), core.Size2x2, 9) }, false,
			"key-found iters=5 key=100010011 trace=7d578c923de2c11e55355ad9df61068caf3ed335b6730e1d70ccb89b86765913 solver=decisions=476 propagations=12049 conflicts=109 restarts=0 learnt=109 removed=0 maxdepth=37"},
		{"small120/2x2-routed/58", func(t *testing.T) *fixture { _, fx := routedRILFixture(t); return fx }, false,
			"key-found iters=5 key=1111010011100 trace=df6cb6d99aa29e4a7d5e4b2d4a130a42348f7030c027dddfb4822e3d769d39e1 solver=decisions=1066 propagations=48414 conflicts=419 restarts=2 learnt=419 removed=0 maxdepth=49"},
		{"xor60/8/bva", func(t *testing.T) *fixture { return xorFixture(t, 60, 8, 8) }, true,
			"key-found iters=6 key=10101010 trace=ae24d436561fbaa34ab593fe217cbe63763190b344094362a3bac64ef7001226 solver=decisions=321 propagations=11505 conflicts=96 restarts=0 learnt=96 removed=0 maxdepth=25"},
		// A Table I cell: c7552 at scale 0.1, five 2x2 blocks.
		{"c7552@0.1/2x2x5/2", c7552Fixture, false,
			"key-found iters=17 key=001110001011000111110101110000110111101101011 trace=91a36710a1b449c5ffad7978f5597a44c872734a708ab37826b555635e2d0f24 solver=decisions=4910 propagations=393829 conflicts=756 restarts=2 learnt=756 removed=0 maxdepth=123"},
	}
	for _, tc := range cases {
		fx := tc.fx(t)
		var trace bytes.Buffer
		res, err := SATAttack(fx.locked, fx.keyPos, fx.oracle(t), SATOptions{Timeout: goldenBudget, BVA: tc.bva, Trace: &trace})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := fmt.Sprintf("%v iters=%d key=%s trace=%x solver=%+v",
			res.Status, res.Iterations, bitString(res.Key), sha256.Sum256(trace.Bytes()), res.Solver)
		checkGolden(t, tc.name, got, tc.want)
	}
}

func TestGoldenAppSAT(t *testing.T) {
	cases := []struct {
		name      string
		fx        func(t *testing.T) *fixture
		maxRounds int
		want      string
	}{
		{"c17/2x2/17", c17Fixture, 0,
			"key-found rounds=1 dips=7 est=0 key=001110111 queries=7"},
		{"c432/8x8/432", func(t *testing.T) *fixture { return rilFixture(t, c432Profile(t), core.Size8x8, 432) }, 0,
			"key-found rounds=2 dips=8 est=0 key=1001110100101100000001001000010111101111011100011101000100010111 queries=72"},
		{"scan/small120/8x8/13", scanFixture, 8,
			"key-found rounds=2 dips=16 est=0 key=0101001010111001101011001110011000010111000111101101100000001000 queries=144"},
		{"scan/small120/8x8/13/1-round", scanFixture, 1,
			"timeout rounds=1 dips=8 est=0.734375 key= queries=72"},
	}
	for _, tc := range cases {
		fx := tc.fx(t)
		oracle := fx.oracle(t)
		opt := DefaultAppSAT()
		opt.Timeout = goldenBudget
		if tc.maxRounds > 0 {
			opt.MaxRounds = tc.maxRounds
		}
		ar, err := AppSAT(fx.locked, fx.keyPos, oracle, opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := fmt.Sprintf("%v rounds=%d dips=%d est=%v key=%s queries=%d",
			ar.Status, ar.Rounds, ar.DIPs, ar.ErrorEstimate, bitString(ar.Key), oracle.Queries())
		checkGolden(t, tc.name, got, tc.want)
	}
}

func TestGoldenSATAttackOneHot(t *testing.T) {
	routing, routingHints := routingOnlyFixture(t)
	rilRes, ril := routedRILFixture(t)
	cases := []struct {
		name  string
		fx    *fixture
		hints []RoutingHint
		want  string
	}{
		{"routing-only/8", routing, routingHints,
			"key-found iters=6 key=010110110010 realizable=true solver=decisions=3029 propagations=313174 conflicts=1559 restarts=8 learnt=1559 removed=0 maxdepth=64"},
		{"small120/2x2-routed/58", ril, HintsFromRIL(rilRes),
			"key-found iters=6 key=1111010010110 realizable=true solver=decisions=1882 propagations=92417 conflicts=749 restarts=3 learnt=749 removed=0 maxdepth=50"},
	}
	for _, tc := range cases {
		res, err := SATAttackOneHot(tc.fx.locked, tc.fx.keyPos, tc.hints, tc.fx.oracle(t), SATOptions{Timeout: goldenBudget})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := fmt.Sprintf("%v iters=%d key=%s realizable=%v solver=%+v",
			res.SAT.Status, res.SAT.Iterations, bitString(res.Key), res.Realizable, res.SAT.Solver)
		checkGolden(t, tc.name, got, tc.want)
	}
}

func TestGoldenEquivalentSAT(t *testing.T) {
	orig := smallCircuit(t, 80, 1)
	locked, keyPos, key := xorLock(t, orig, 12, 2)
	unlocked, err := locked.BindInputs(keyPos, key)
	if err != nil {
		t.Fatal(err)
	}
	a := smallCircuit(t, 40, 23)
	b := a.Clone()
	out := b.Outputs[0]
	b.RedirectFanout(out, b.AddGate("flip", netlist.Not, out))
	cases := []struct {
		name string
		a, b *netlist.Netlist
		want string
	}{
		{"equal", orig, unlocked, "eq=true cex="},
		{"unequal", a, b, "eq=false cex=011100001101"},
	}
	for _, tc := range cases {
		eq, cex, err := EquivalentSAT(tc.a, tc.b, goldenBudget)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		checkGolden(t, tc.name, fmt.Sprintf("eq=%v cex=%s", eq, bitString(cex)), tc.want)
	}
}
