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
// recorded under SearchVersion 2. They must match bit for bit: sat.Stats
// moves with any change to the clause stream, the variable numbering or
// the Solve/assumption order, so matching stats prove all three
// unchanged, and a change to any of them bumps SearchVersion and
// re-records these pins. Every run finishes far inside its budget, so
// no pin depends on timing.

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
			"key-found iters=7 key=001110111 trace=1cc0ba27895bfebf7a37945fb0d734886a7f60dad9bef440a70a5c9433ac529f solver=decisions=131 propagations=788 conflicts=25 restarts=0 learnt=25 removed=0 maxdepth=23"},
		{"c432/8x8/432", func(t *testing.T) *fixture { return rilFixture(t, c432Profile(t), core.Size8x8, 432) }, false,
			"key-found iters=29 key=1001110100101100000001001011100111111110011100011000000100010111 trace=8d01dbb0e36c9c9b2956b21dacae3f3e298c001e6bf99e57c160cbefc8b7d5ca solver=decisions=10512 propagations=394199 conflicts=1958 restarts=6 learnt=1958 removed=0 maxdepth=178"},
		{"small80/2x2/9", func(t *testing.T) *fixture { return rilFixture(t, smallCircuit(t, 80, 4), core.Size2x2, 9) }, false,
			"key-found iters=5 key=100010111 trace=9f626ff8920482df84dfed94c6252809eb2aa2a59dbd8d3cdba1b654a5b617c8 solver=decisions=358 propagations=9108 conflicts=98 restarts=0 learnt=98 removed=0 maxdepth=30"},
		{"small120/2x2-routed/58", func(t *testing.T) *fixture { _, fx := routedRILFixture(t); return fx }, false,
			"key-found iters=6 key=1111010011001 trace=149a05ce4d02bb45b7a7f43420835eed154a800991c618f9e1856746b682b44e solver=decisions=1067 propagations=48130 conflicts=429 restarts=1 learnt=429 removed=0 maxdepth=49"},
		{"xor60/8/bva", func(t *testing.T) *fixture { return xorFixture(t, 60, 8, 8) }, true,
			"key-found iters=6 key=10101010 trace=583969068ea103f4d9333498dcbd8195fd1b87da93d7f264af077ccbdbe3c4cb solver=decisions=317 propagations=8978 conflicts=95 restarts=0 learnt=95 removed=0 maxdepth=21"},
		// A Table I cell: c7552 at scale 0.1, five 2x2 blocks.
		{"c7552@0.1/2x2x5/2", c7552Fixture, false,
			"key-found iters=15 key=001110001011000111110101110111110101101111011 trace=fbc1ac03af986857d7a89d92f5b5d630864e859083e1ee4295773d1902853952 solver=decisions=3932 propagations=178578 conflicts=656 restarts=2 learnt=656 removed=0 maxdepth=125"},
	}
	for _, tc := range cases {
		fx := tc.fx(t)
		var trace bytes.Buffer
		res, err := SATAttack(fx.locked, fx.keyPos, fx.oracle(t), SATOptions{Timeout: goldenBudget, BVA: tc.bva, Trace: &trace})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := fmt.Sprintf("%v iters=%d key=%s trace=%x solver=%+v",
			res.Status, res.Iterations, BitString(res.Key), sha256.Sum256(trace.Bytes()), res.Solver)
		checkGolden(t, tc.name, got, tc.want)
		fx.checkKey(t, tc.name, res.Key)
	}
}

func TestGoldenAppSAT(t *testing.T) {
	cases := []struct {
		name      string
		fx        func(t *testing.T) *fixture
		maxRounds int
		exact     bool // the key is exact, not just within the error threshold
		want      string
	}{
		{"c17/2x2/17", c17Fixture, 0, true,
			"key-found rounds=1 dips=7 est=0 key=001110111 queries=7"},
		{"c432/8x8/432", func(t *testing.T) *fixture { return rilFixture(t, c432Profile(t), core.Size8x8, 432) }, 0, true,
			"key-found rounds=2 dips=8 est=0 key=1001110100101100000001000111110111110101011100011100000100010111 queries=72"},
		{"scan/small120/8x8/13", scanFixture, 8, false,
			"key-found rounds=2 dips=16 est=0 key=0100001010111001101011010100101000110111000110101011100000001100 queries=144"},
		{"scan/small120/8x8/13/1-round", scanFixture, 1, false,
			"timeout rounds=1 dips=8 est=0.578125 key= queries=72"},
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
			ar.Status, ar.Rounds, ar.DIPs, ar.ErrorEstimate, BitString(ar.Key), oracle.Queries())
		checkGolden(t, tc.name, got, tc.want)
		if ar.Status != KeyFound {
			continue
		}
		if tc.exact {
			fx.checkKey(t, tc.name, ar.Key)
		}
		rate, err := VerifyKey(fx.locked, fx.keyPos, ar.Key, fx.oracle(t), 1000, 1)
		if err != nil || rate > opt.ErrorThreshold {
			t.Errorf("%s: key's error rate %v (%v), over the %v threshold", tc.name, rate, err, opt.ErrorThreshold)
		}
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
			"key-found iters=6 key=010110110010 realizable=true solver=decisions=2578 propagations=284048 conflicts=1412 restarts=6 learnt=1412 removed=0 maxdepth=64"},
		{"small120/2x2-routed/58", ril, HintsFromRIL(rilRes),
			"key-found iters=7 key=1110010010100 realizable=true solver=decisions=1382 propagations=54520 conflicts=534 restarts=1 learnt=534 removed=0 maxdepth=52"},
	}
	for _, tc := range cases {
		res, err := SATAttackOneHot(tc.fx.locked, tc.fx.keyPos, tc.hints, tc.fx.oracle(t), SATOptions{Timeout: goldenBudget})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := fmt.Sprintf("%v iters=%d key=%s realizable=%v solver=%+v",
			res.SAT.Status, res.SAT.Iterations, BitString(res.Key), res.Realizable, res.SAT.Solver)
		checkGolden(t, tc.name, got, tc.want)
		tc.fx.checkKey(t, tc.name, res.Key)
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
		checkGolden(t, tc.name, fmt.Sprintf("eq=%v cex=%s", eq, BitString(cex)), tc.want)
	}
}
