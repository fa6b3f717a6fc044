package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/netlist"
)

func testCircuit(t *testing.T, inputs, outputs, gates int, seed int64) *netlist.Netlist {
	t.Helper()
	nl, err := netlist.Random(netlist.RandomProfile{
		Name: "t", Inputs: inputs, Outputs: outputs, Gates: gates, Locality: 0.7,
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

func TestParseSize(t *testing.T) {
	cases := map[string]Size{
		"2x2":   Size2x2,
		"8x8":   Size8x8,
		"8x8x8": Size8x8x8,
		"4x4x4": {K: 4, InputRouting: true, OutputRouting: true},
		"4x4":   {K: 4, InputRouting: true, OutputRouting: false},
	}
	for s, want := range cases {
		got, err := ParseSize(s)
		if err != nil {
			t.Errorf("ParseSize(%q): %v", s, err)
			continue
		}
		if got != want {
			t.Errorf("ParseSize(%q) = %+v, want %+v", s, got, want)
		}
	}
	for _, bad := range []string{"", "8", "8x4", "1x1", "axb", "8x8x8x8"} {
		if _, err := ParseSize(bad); err == nil {
			t.Errorf("ParseSize(%q) accepted", bad)
		}
	}
	if Size2x2.String() != "2x2" || Size8x8.String() != "8x8" || Size8x8x8.String() != "8x8x8" {
		t.Error("Size.String mismatch")
	}
}

func TestBanyanPermuteIdentity(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16} {
		keys := make([]bool, BanyanSwitchCount(n))
		perm, err := BanyanPermute(n, keys)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range perm {
			if p != i {
				t.Errorf("n=%d: all-straight banyan is not identity at %d", n, i)
			}
		}
	}
}

func TestBanyanPermuteBijective(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{4, 8, 16} {
		for trial := 0; trial < 50; trial++ {
			keys := randomBits(rng, BanyanSwitchCount(n))
			perm, err := BanyanPermute(n, keys)
			if err != nil {
				t.Fatal(err)
			}
			seen := make([]bool, n)
			for _, p := range perm {
				if p < 0 || p >= n || seen[p] {
					t.Fatalf("n=%d not a permutation: %v", n, perm)
				}
				seen[p] = true
			}
		}
	}
}

func TestBanyanSwitchCount(t *testing.T) {
	if BanyanSwitchCount(8) != 12 { // (8/2)*3
		t.Errorf("BanyanSwitchCount(8) = %d, want 12", BanyanSwitchCount(8))
	}
	if BanyanSwitchCount(16) != 32 {
		t.Errorf("BanyanSwitchCount(16) = %d, want 32", BanyanSwitchCount(16))
	}
	if BanyanSwitchCount(3) != 0 {
		t.Error("non-power-of-two width should yield 0")
	}
}

// TestBanyanNetlistMatchesPermute drives the gate-level banyan with a
// one-hot input and checks the landed position against BanyanPermute.
func TestBanyanNetlistMatchesPermute(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n = 8
	for trial := 0; trial < 20; trial++ {
		keys := randomBits(rng, BanyanSwitchCount(n))
		nl := netlist.New("banyan")
		lines := make([]int, n)
		for i := range lines {
			lines[i] = nl.AddInput(fmt.Sprintf("in%d", i))
		}
		keyIDs := make([]int, len(keys))
		for i := range keys {
			keyIDs[i] = nl.AddInput(fmt.Sprintf("k%d", i))
		}
		outs, err := buildBanyan(nl, "b", lines, keyIDs)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range outs {
			nl.MarkOutput(o)
		}
		sim, err := netlist.NewSimulator(nl)
		if err != nil {
			t.Fatal(err)
		}
		perm, _ := BanyanPermute(n, keys)
		for hot := 0; hot < n; hot++ {
			in := make([]bool, n+len(keys))
			in[hot] = true
			for i, k := range keys {
				in[n+i] = k
			}
			out := sim.Eval(in)
			for j, v := range out {
				want := perm[j] == hot
				if v != want {
					t.Fatalf("trial %d hot %d: output %d = %v, want %v (perm %v)", trial, hot, j, v, want, perm)
				}
			}
		}
	}
}

func TestLockAllSizesEquivalentUnderCorrectKey(t *testing.T) {
	orig := testCircuit(t, 24, 12, 400, 11)
	for _, size := range []Size{Size2x2, Size8x8, Size8x8x8, {K: 4, InputRouting: true, OutputRouting: true}} {
		res, err := Lock(orig, Options{Blocks: 2, Size: size, Seed: 99})
		if err != nil {
			t.Fatalf("%s: %v", size, err)
		}
		// Lock self-checks equivalence; verify the key geometry too.
		want := TotalOverhead(size, 2).KeyBits
		if res.KeyBits() != want {
			t.Errorf("%s: key bits %d, want %d", size, res.KeyBits(), want)
		}
		if len(res.KeyInputPos) != res.KeyBits() || len(res.KeyNames) != res.KeyBits() {
			t.Errorf("%s: key bookkeeping inconsistent", size)
		}
		// Key inputs must be actual inputs of the locked netlist.
		for i, pos := range res.KeyInputPos {
			id := res.Locked.Inputs[pos]
			if res.Locked.Gates[id].Name != res.KeyNames[i] {
				t.Fatalf("%s: key input %d name mismatch", size, i)
			}
		}
	}
}

func TestLockWrongKeyCorrupts(t *testing.T) {
	orig := testCircuit(t, 24, 12, 400, 12)
	res, err := Lock(orig, Options{Blocks: 3, Size: Size8x8x8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	corrupted := 0
	const trials = 10
	for trial := 0; trial < trials; trial++ {
		wrong := append([]bool(nil), res.Key...)
		// Flip several random key bits.
		for f := 0; f < 5; f++ {
			wrong[rng.Intn(len(wrong))] = !wrong[rng.Intn(len(wrong))]
			i := rng.Intn(len(wrong))
			wrong[i] = !wrong[i]
		}
		bound, err := res.ApplyKey(wrong)
		if err != nil {
			t.Fatal(err)
		}
		c, err := netlist.OutputCorruptibility(orig, bound, 4, int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		if c > 0 {
			corrupted++
		}
	}
	if corrupted < trials/2 {
		t.Errorf("only %d/%d wrong keys corrupted outputs — locking too weak", corrupted, trials)
	}
}

func TestLockDeterministic(t *testing.T) {
	orig := testCircuit(t, 16, 8, 200, 3)
	a, err := Lock(orig, Options{Blocks: 1, Size: Size8x8, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Lock(orig, Options{Blocks: 1, Size: Size8x8, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Key) != len(b.Key) {
		t.Fatal("nondeterministic key length")
	}
	for i := range a.Key {
		if a.Key[i] != b.Key[i] {
			t.Fatal("nondeterministic key")
		}
	}
	eq, _, err := netlist.Equivalent(a.Locked, b.Locked, 0, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("nondeterministic locked netlist")
	}
}

func TestLockErrors(t *testing.T) {
	orig := testCircuit(t, 8, 4, 30, 1)
	if _, err := Lock(orig, Options{Blocks: 0, Size: Size2x2}); err == nil {
		t.Error("Blocks=0 accepted")
	}
	if _, err := Lock(orig, Options{Blocks: 1, Size: Size{K: 3, InputRouting: true}}); err == nil {
		t.Error("K=3 accepted")
	}
	// A tiny circuit cannot host many 8-LUT blocks.
	if _, err := Lock(orig, Options{Blocks: 50, Size: Size8x8x8, Seed: 1}); err == nil {
		t.Error("over-subscription accepted")
	}
	// Table I's n/a cells: c7552@0.1 runs out of candidates for 25 8×8
	// blocks, at the same block as before the selection walked cones
	// over shared fanout lists.
	prof, _ := circuit.ProfileByName("c7552")
	c7552, err := prof.Synthesize(0.1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Lock(c7552, Options{Blocks: 25, Size: Size8x8, Seed: 1})
	if !errors.Is(err, errNoCandidates) || !strings.HasPrefix(err.Error(), "core: block 14: ") {
		t.Errorf("25 8x8 blocks on c7552@0.1: error %v, want errNoCandidates at block 14", err)
	}
}

func TestScanViewInvertsOnlyFlaggedLUTs(t *testing.T) {
	orig := testCircuit(t, 20, 10, 300, 8)
	res, err := Lock(orig, Options{Blocks: 2, Size: Size8x8, Seed: 21, ScanEnable: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SEBits) != 16 {
		t.Fatalf("SEBits = %d, want 16", len(res.SEBits))
	}
	sv, err := res.ScanView()
	if err != nil {
		t.Fatal(err)
	}
	anySet := false
	for _, b := range res.SEBits {
		if b {
			anySet = true
		}
	}
	eq, _, err := netlist.Equivalent(res.Locked, sv, 0, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if anySet && eq {
		t.Error("scan view identical to locked netlist despite SE bits set")
	}
	if !anySet && !eq {
		t.Error("scan view differs with no SE bits set")
	}

	// Without scan enable, ScanView is the plain locked netlist.
	res2, err := Lock(orig, Options{Blocks: 1, Size: Size2x2, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	sv2, err := res2.ScanView()
	if err != nil {
		t.Fatal(err)
	}
	eq, _, _ = netlist.Equivalent(res2.Locked, sv2, 0, 8, 2)
	if !eq {
		t.Error("ScanView without ScanEnable must be identical")
	}
}

// TestLockRecordsLiveWireNames checks that every wire a block records
// names a gate of the locked netlist, also when a later block replaces
// a gate that an earlier block taps.
func TestLockRecordsLiveWireNames(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		orig := testCircuit(t, 16, 16, 150, seed)
		for _, size := range []Size{Size2x2, Size8x8, Size8x8x8} {
			res, err := Lock(orig, Options{Blocks: 3, Size: size, Seed: seed})
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, size, err)
			}
			for bi, blk := range res.Blocks {
				for _, wires := range [][]string{blk.PortWire, blk.FaninA, blk.FaninB, blk.LUTOut, blk.InNetOut, blk.OutNetOut} {
					for _, w := range wires {
						if _, ok := res.Locked.GateID(w); !ok {
							t.Errorf("seed %d %s block %d: %q names no gate of the locked netlist", seed, size, bi, w)
						}
					}
				}
			}
		}
	}
}

func TestMorphPreservesFunction(t *testing.T) {
	orig := testCircuit(t, 20, 10, 300, 14)
	res, err := Lock(orig, Options{Blocks: 2, Size: Size8x8x8, Seed: 31, ScanEnable: true})
	if err != nil {
		t.Fatal(err)
	}
	totalDelta := 0
	for epoch := 0; epoch < 5; epoch++ {
		stats := res.Morph(int64(epoch)*7+1, 12)
		totalDelta += stats.KeyBitsDelta
		bound, err := res.ApplyKey(res.Key)
		if err != nil {
			t.Fatal(err)
		}
		eq, cex, err := netlist.Equivalent(orig, bound, 12, 8, int64(epoch))
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Fatalf("epoch %d: morph broke functionality, cex=%v", epoch, cex)
		}
	}
	if totalDelta == 0 {
		t.Error("five morph epochs never changed the key — morphing inert")
	}
}

func TestMorphChangesKeyForRoutedBlocks(t *testing.T) {
	orig := testCircuit(t, 20, 10, 300, 15)
	res, err := Lock(orig, Options{Blocks: 1, Size: Size8x8x8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := append([]bool(nil), res.Key...)
	stats := res.Morph(123, 16)
	if stats.RoutingMoves == 0 {
		t.Error("no routing move found for an 8x8x8 block")
	}
	diff := 0
	for i := range before {
		if before[i] != res.Key[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Error("morph reported moves but key unchanged")
	}
}

func TestReconfigureRejectsIncompatibleRouting(t *testing.T) {
	orig := testCircuit(t, 20, 10, 300, 16)
	res, err := Lock(orig, Options{Blocks: 1, Size: Size8x8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	blk := res.Blocks[0]
	// Flipping a FIRST-stage switch alone scrambles which wires pair up;
	// with high probability the LUT layer cannot compensate.
	inKeys := currentBits(res.Key, blk.InKeyPos)
	inKeys[0] = !inKeys[0]
	err = res.Reconfigure(0, inKeys, nil)
	if err == nil {
		// Possible only if the affected pair coincidentally matched;
		// the guaranteed-invalid case is checked with wrong lengths.
		t.Log("first-stage flip happened to be compensable")
	}
	if err := res.Reconfigure(0, inKeys[:3], nil); err == nil {
		t.Error("wrong input key length accepted")
	}
	if err := res.Reconfigure(0, inKeys, []bool{true}); err == nil {
		t.Error("output keys accepted for a block without output routing")
	}
}

func TestReconfigureLastStageAlwaysValid(t *testing.T) {
	orig := testCircuit(t, 20, 10, 300, 17)
	res, err := Lock(orig, Options{Blocks: 1, Size: Size8x8x8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	blk := res.Blocks[0]
	k := blk.Size.K
	stages, _ := banyanStages(2 * k)
	inKeys := currentBits(res.Key, blk.InKeyPos)
	outKeys := currentBits(res.Key, blk.OutKeyPos)
	for l := 0; l < k; l++ {
		sw := (stages-1)*k + l
		inKeys[sw] = !inKeys[sw]
		if err := res.Reconfigure(0, inKeys, outKeys); err != nil {
			t.Fatalf("last-stage switch %d flip rejected: %v", l, err)
		}
		bound, err := res.ApplyKey(res.Key)
		if err != nil {
			t.Fatal(err)
		}
		eq, cex, err := netlist.Equivalent(orig, bound, 0, 6, int64(l))
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Fatalf("last-stage flip %d broke function, cex=%v", l, cex)
		}
	}
}

func TestOverheadClaim(t *testing.T) {
	// Paper §III-A: 3 blocks of 8x8x8 cost ~3x less than 75 blocks of
	// 2x2 at equal (timeout-grade) SAT resistance.
	big := TotalOverhead(Size8x8x8, 3)
	small := TotalOverhead(Size2x2, 75)
	ratio := float64(small.Transistors) / float64(big.Transistors)
	if ratio < 2.0 || ratio > 4.5 {
		t.Errorf("overhead ratio 75x(2x2)/3x(8x8x8) = %.2f, want ~3x", ratio)
	}
	if big.KeyBits != 3*(32+12+32) {
		t.Errorf("8x8x8 key bits per 3 blocks = %d, want %d", big.KeyBits, 3*76)
	}
	if small.KeyBits != 75*9 {
		t.Errorf("2x2 key bits per 75 blocks = %d, want %d", small.KeyBits, 75*9)
	}
}

func TestOverheadAggregation(t *testing.T) {
	orig := testCircuit(t, 20, 10, 300, 19)
	res, err := Lock(orig, Options{Blocks: 2, Size: Size8x8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	o := res.Overhead()
	if o.Blocks != 2 || o.LUTs != 16 {
		t.Errorf("aggregate overhead %+v", o)
	}
	if o.KeyBits != res.KeyBits() {
		t.Errorf("overhead key bits %d != actual %d", o.KeyBits, res.KeyBits())
	}
}

func TestApplyKeyLengthCheck(t *testing.T) {
	orig := testCircuit(t, 16, 8, 200, 20)
	res, err := Lock(orig, Options{Blocks: 1, Size: Size2x2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.ApplyKey(res.Key[:1]); err == nil {
		t.Error("short key accepted")
	}
}

// TestLockAllocs bounds the allocations of Table I's largest lock, 100
// 2×2 blocks on c7552@0.1: each gate selection builds the fanout lists
// once, not once per candidate gate, and BindInputs rewrites all key
// inputs in one pass.
func TestLockAllocs(t *testing.T) {
	prof, _ := circuit.ProfileByName("c7552")
	nl, err := prof.Synthesize(0.1)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Lock(nl, Options{Blocks: 100, Size: Size2x2, Seed: 1}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Lock allocations, 100 2x2 blocks on c7552@0.1: %.0f", allocs)
	if allocs > 25000 {
		t.Errorf("Lock allocates %.0f times, want at most 25000", allocs)
	}
}
