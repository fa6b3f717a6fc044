package attack

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/testutil"
)

// xorLock and smallCircuit moved to internal/testutil so the sweep and
// checkpoint suites can share them; these thin aliases keep call sites
// readable.
func xorLock(t *testing.T, orig *netlist.Netlist, nKeys int, seed int64) (*netlist.Netlist, []int, []bool) {
	t.Helper()
	return testutil.XORLock(t, orig, nKeys, seed)
}

func smallCircuit(t *testing.T, gates int, seed int64) *netlist.Netlist {
	t.Helper()
	return testutil.SmallCircuit(t, gates, seed)
}

func oracleFor(t *testing.T, locked *netlist.Netlist, keyPos []int, key []bool) Oracle {
	t.Helper()
	bound, err := locked.BindInputs(keyPos, key)
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewSimOracle(bound)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestSATAttackRecoversXORLockKey(t *testing.T) {
	orig := smallCircuit(t, 80, 1)
	locked, keyPos, key := xorLock(t, orig, 12, 2)
	oracle := oracleFor(t, locked, keyPos, key)
	res, err := SATAttack(locked, keyPos, oracle, SATOptions{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != KeyFound {
		t.Fatalf("attack did not converge: %v", res)
	}
	errRate, err := VerifyKey(locked, keyPos, res.Key, oracle, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if errRate != 0 {
		t.Errorf("recovered key error rate %v, want 0", errRate)
	}
	// SAT proof of equivalence.
	bound, err := locked.BindInputs(keyPos, res.Key)
	if err != nil {
		t.Fatal(err)
	}
	eq, cex, err := EquivalentSAT(orig, bound, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Errorf("recovered key not equivalent, cex=%v", cex)
	}
}

func TestSATAttackRecoversRILKey(t *testing.T) {
	orig := smallCircuit(t, 80, 4)
	res, err := core.Lock(orig, core.Options{Blocks: 1, Size: core.Size2x2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	oracle := oracleFor(t, res.Locked, res.KeyInputPos, res.Key)
	ar, err := SATAttack(res.Locked, res.KeyInputPos, oracle, SATOptions{Timeout: 60 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if ar.Status != KeyFound {
		t.Fatalf("small RIL attack should converge: %v", ar)
	}
	// The recovered key may differ from the original (banyan key
	// symmetry) but must be functionally correct.
	errRate, err := VerifyKey(res.Locked, res.KeyInputPos, ar.Key, oracle, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	if errRate != 0 {
		t.Errorf("recovered RIL key error rate %v, want 0", errRate)
	}
	if ar.Iterations < 1 {
		t.Error("attack claims zero DIPs on a corruptible lock")
	}
}

func TestSATAttackTimesOutOnLargerRIL(t *testing.T) {
	orig := smallCircuit(t, 300, 6)
	res, err := core.Lock(orig, core.Options{Blocks: 3, Size: core.Size8x8x8, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	oracle := oracleFor(t, res.Locked, res.KeyInputPos, res.Key)
	ar, err := SATAttack(res.Locked, res.KeyInputPos, oracle, SATOptions{Timeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if ar.Status == KeyFound {
		// Possible on a fast machine; verify at least that the key is
		// correct, otherwise the attack lied.
		errRate, err := VerifyKey(res.Locked, res.KeyInputPos, ar.Key, oracle, 8, 5)
		if err != nil {
			t.Fatal(err)
		}
		if errRate != 0 {
			t.Errorf("converged attack returned wrong key (err %v)", errRate)
		}
		t.Skip("3x 8x8x8 solved within 300ms on this machine")
	}
	if ar.Status != Timeout {
		t.Errorf("status %v, want timeout", ar.Status)
	}
}

func TestSATAttackMaxIterations(t *testing.T) {
	orig := smallCircuit(t, 300, 7)
	res, err := core.Lock(orig, core.Options{Blocks: 2, Size: core.Size8x8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	oracle := oracleFor(t, res.Locked, res.KeyInputPos, res.Key)
	ar, err := SATAttack(res.Locked, res.KeyInputPos, oracle, SATOptions{MaxIterations: 1, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if ar.Status == KeyFound && ar.Iterations > 1 {
		t.Errorf("iteration cap ignored: %v", ar)
	}
}

func TestSATAttackTrace(t *testing.T) {
	orig := smallCircuit(t, 60, 91)
	locked, keyPos, key := xorLock(t, orig, 6, 92)
	oracle := oracleFor(t, locked, keyPos, key)
	var trace bytes.Buffer
	res, err := SATAttack(locked, keyPos, oracle, SATOptions{Timeout: 30 * time.Second, Trace: &trace})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(trace.String()), "\n")
	if res.Iterations == 0 {
		t.Skip("attack converged without DIPs")
	}
	if len(lines) != res.Iterations {
		t.Fatalf("trace has %d lines, want %d", len(lines), res.Iterations)
	}
	for i, line := range lines {
		parts := strings.Split(line, ",")
		if len(parts) != 3 {
			t.Fatalf("trace line %d malformed: %q", i, line)
		}
		if len(parts[1]) != oracle.NumInputs() || len(parts[2]) != oracle.NumOutputs() {
			t.Fatalf("trace widths wrong: %q", line)
		}
	}
}

func TestSATAttackWithBVA(t *testing.T) {
	orig := smallCircuit(t, 60, 8)
	locked, keyPos, key := xorLock(t, orig, 8, 9)
	oracle := oracleFor(t, locked, keyPos, key)
	res, err := SATAttack(locked, keyPos, oracle, SATOptions{Timeout: 30 * time.Second, BVA: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != KeyFound {
		t.Fatalf("BVA attack did not converge: %v", res)
	}
	if e, _ := VerifyKey(locked, keyPos, res.Key, oracle, 8, 3); e != 0 {
		t.Errorf("BVA-preprocessed attack returned wrong key (err %v)", e)
	}
}

func TestAppSATOnRILWithScanEnableFails(t *testing.T) {
	orig := smallCircuit(t, 120, 12)
	res, err := core.Lock(orig, core.Options{Blocks: 1, Size: core.Size8x8, Seed: 13, ScanEnable: true})
	if err != nil {
		t.Fatal(err)
	}
	anySE := false
	for _, b := range res.SEBits {
		anySE = anySE || b
	}
	if !anySE {
		t.Skip("seed produced all-zero SE bits")
	}
	// The attacker queries through the scan chain: corrupted responses.
	sv, err := res.ScanView()
	if err != nil {
		t.Fatal(err)
	}
	scanOracle := oracleFor(t, sv, res.KeyInputPos, res.Key)
	funcOracle := oracleFor(t, res.Locked, res.KeyInputPos, res.Key)

	opt := DefaultAppSAT()
	opt.Timeout = 10 * time.Second
	opt.MaxRounds = 8
	ar, err := AppSAT(res.Locked, res.KeyInputPos, scanOracle, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Either AppSAT never converges, or the key it returns is wrong for
	// the functional circuit — both count as failure (paper Table III ✗).
	if ar.Status == KeyFound {
		e, err := VerifyKey(res.Locked, res.KeyInputPos, ar.Key, funcOracle, 8, 14)
		if err != nil {
			t.Fatal(err)
		}
		if e == 0 {
			t.Errorf("AppSAT recovered a functionally correct key through a corrupted oracle")
		}
	}
}

func TestAppSATConvergesOnEasyLock(t *testing.T) {
	orig := smallCircuit(t, 60, 15)
	locked, keyPos, key := xorLock(t, orig, 6, 16)
	oracle := oracleFor(t, locked, keyPos, key)
	opt := DefaultAppSAT()
	opt.Timeout = 20 * time.Second
	ar, err := AppSAT(locked, keyPos, oracle, opt)
	if err != nil {
		t.Fatal(err)
	}
	if ar.Status != KeyFound {
		t.Fatalf("AppSAT failed on an easy lock: %v", ar)
	}
	e, err := VerifyKey(locked, keyPos, ar.Key, oracle, 8, 17)
	if err != nil {
		t.Fatal(err)
	}
	if e > float64(opt.ErrorThreshold) {
		t.Errorf("AppSAT key error %v exceeds threshold %v", e, opt.ErrorThreshold)
	}
}

func TestStructuralRemovalBreaksXORLock(t *testing.T) {
	// The bypass must recover the original circuit exactly from the
	// classic XOR-locked netlist.
	orig := smallCircuit(t, 100, 41)
	locked, keyPos, _ := xorLock(t, orig, 10, 42)
	stripped, err := StructuralRemoval(locked, keyPos, 1)
	if err != nil {
		t.Fatal(err)
	}
	eq, cex, err := EquivalentSAT(orig, stripped, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Errorf("structural removal failed on XOR locking, cex=%v", cex)
	}
}

func TestStructuralRemovalFailsOnRIL(t *testing.T) {
	// RIL-Blocks replace original gates, so stripping leaves garbage.
	orig := smallCircuit(t, 150, 43)
	res, err := core.Lock(orig, core.Options{Blocks: 1, Size: core.Size8x8, Seed: 44})
	if err != nil {
		t.Fatal(err)
	}
	stripped, err := StructuralRemoval(res.Locked, res.KeyInputPos, 1)
	if err != nil {
		t.Fatal(err)
	}
	eq, _, err := EquivalentSAT(orig, stripped, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Error("structural removal recovered the circuit from RIL-Blocks")
	}
}

func TestScanSATDefeated(t *testing.T) {
	orig := smallCircuit(t, 100, 21)
	res, err := core.Lock(orig, core.Options{Blocks: 1, Size: core.Size8x8, Seed: 22, ScanEnable: true})
	if err != nil {
		t.Fatal(err)
	}
	anySE := false
	for _, b := range res.SEBits {
		anySE = anySE || b
	}
	if !anySE {
		t.Skip("seed produced all-zero SE bits")
	}
	sv, err := res.ScanView()
	if err != nil {
		t.Fatal(err)
	}
	scanOracle := oracleFor(t, sv, res.KeyInputPos, res.Key)
	funcOracle := oracleFor(t, res.Locked, res.KeyInputPos, res.Key)
	var luts []string
	for _, blk := range res.Blocks {
		luts = append(luts, blk.LUTOut...)
	}
	sr, err := ScanSAT(res.Locked, res.KeyInputPos, luts, scanOracle, funcOracle, SATOptions{Timeout: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if sr.SAT.Status == KeyFound && sr.ScanError > 0.001 {
		t.Errorf("ScanSAT converged but does not reproduce scan behaviour (err %v)", sr.ScanError)
	}
	if !sr.Defeated {
		t.Errorf("ScanSAT recovered a functionally correct key: %+v", sr)
	}
}

func TestEquivalentSATFindsCounterexample(t *testing.T) {
	a := smallCircuit(t, 40, 23)
	b := a.Clone()
	// Invert one output.
	out := b.Outputs[0]
	inv := b.AddGate("flip", netlist.Not, out)
	b.RedirectFanout(out, inv)
	eq, cex, err := EquivalentSAT(a, b, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Fatal("inverted circuit declared equivalent")
	}
	if len(cex) != len(a.Inputs) {
		t.Fatalf("counterexample has %d bits, want %d", len(cex), len(a.Inputs))
	}
	// The counterexample must actually distinguish the circuits.
	sa, _ := netlist.NewSimulator(a)
	sb, _ := netlist.NewSimulator(b)
	oa, ob := sa.Eval(cex), sb.Eval(cex)
	same := true
	for i := range oa {
		if oa[i] != ob[i] {
			same = false
		}
	}
	if same {
		t.Error("returned counterexample does not distinguish the circuits")
	}
}

func TestOracleErrorRateSelf(t *testing.T) {
	orig := smallCircuit(t, 40, 24)
	o1, err := NewSimOracle(orig)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := NewSimOracle(orig.Clone())
	if err != nil {
		t.Fatal(err)
	}
	e, err := OracleErrorRate(o1, o2, 4, 25)
	if err != nil {
		t.Fatal(err)
	}
	if e != 0 {
		t.Errorf("self error rate %v", e)
	}
	if o1.Queries() == 0 {
		t.Error("query counter not advancing")
	}
}
