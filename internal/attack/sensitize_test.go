package attack

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/baselines"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/sat"
)

func TestSensitizeRecoversIsolatedXORKeys(t *testing.T) {
	// A key XOR sitting directly on an output wire is trivially
	// sensitizable: the attack must recover it with one oracle query.
	nl := netlist.New("iso")
	a := nl.AddInput("a")
	b := nl.AddInput("b")
	g := nl.AddGate("g", netlist.And, a, b)
	keyPos := []int{int(2)}
	k := nl.AddInput("keyinput0")
	lockGate := nl.AddGate("klk", netlist.Xor, g, k)
	nl.MarkOutput(lockGate)
	// Second, unlocked output keeps the oracle honest.
	h := nl.AddGate("h", netlist.Or, a, b)
	nl.MarkOutput(h)
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	correct := []bool{false} // XOR with key 0 is transparent
	oracle := oracleFor(t, nl, keyPos, correct)
	res, err := Sensitize(nl, keyPos, oracle, 8, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resolved != 1 || !res.Mask[0] {
		t.Fatalf("expected 1 resolved bit, got %+v", res)
	}
	if res.Key[0] != correct[0] {
		t.Errorf("recovered %v, want %v", res.Key[0], correct[0])
	}
	if res.Queries != 1 {
		t.Errorf("used %d oracle queries, want 1", res.Queries)
	}
}

func TestSensitizeOnXORLock(t *testing.T) {
	// Random XOR locking typically exposes several golden patterns;
	// every bit the attack claims must be correct.
	orig := smallCircuit(t, 60, 71)
	locked, keyPos, key := xorLock(t, orig, 6, 72)
	oracle := oracleFor(t, locked, keyPos, key)
	res, err := Sensitize(locked, keyPos, oracle, 16, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keyPos {
		if res.Mask[i] && res.Key[i] != key[i] {
			t.Errorf("bit %d resolved wrongly: got %v want %v", i, res.Key[i], key[i])
		}
	}
	t.Logf("%s", res)
}

// sensitizeGolden pins one Sensitize outcome: the key and mask as bit
// strings plus the resolved-bit and oracle-query counts.
type sensitizeGolden struct {
	key, mask         string
	resolved, queries int
}

func goldenOf(res *SensitizeResult) sensitizeGolden {
	return sensitizeGolden{key: bitString(res.Key), mask: bitString(res.Mask), resolved: res.Resolved, queries: res.Queries}
}

// TestSensitizeGolden pins Sensitize's results on XOR-locked random
// circuits (instance i: 40+6i gates, circuit seed 300+i, 4+i%7 key bits,
// lock seed 400+i, budget 16); TestSensitizeFailsOnRIL pins its 8×8
// instance. The refutation checks are decision queries whose Sat/Unsat
// answers are fixed by semantics, so however they are encoded the
// candidate sequence, and with it every result, must not move.
func TestSensitizeGolden(t *testing.T) {
	xorGoldens := []sensitizeGolden{
		{"1111", "1111", 4, 4},
		{"00001", "01001", 2, 2},
		{"101000", "101000", 2, 2},
		{"0001000", "0001000", 1, 1},
		{"00000000", "00010000", 1, 1},
		{"100000000", "101000010", 3, 3},
		{"0000100110", "0011100110", 5, 5},
		{"0000", "0011", 2, 2},
		{"00000", "00010", 1, 1},
		{"000000", "110000", 2, 2},
		{"0101000", "0111001", 4, 4},
		{"00000000", "00100000", 1, 1},
		{"001000001", "001000001", 2, 2},
		{"1000010000", "1000010000", 2, 2},
		{"0000", "0110", 2, 2},
		{"00000", "10001", 2, 2},
		{"000001", "001001", 2, 2},
		{"0100000", "0101000", 2, 2},
		{"00000010", "00000010", 1, 1},
		{"001000000", "001000000", 1, 1},
	}
	for i, want := range xorGoldens {
		orig := smallCircuit(t, 40+6*i, int64(300+i))
		locked, keyPos, key := xorLock(t, orig, 4+i%7, int64(400+i))
		res, err := Sensitize(locked, keyPos, oracleFor(t, locked, keyPos, key), 16, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if got := goldenOf(res); got != want {
			t.Errorf("xor instance %d: got %+v, want %+v", i, got, want)
		}
	}
}

// TestSensitizeDeadline runs Sensitize under a timeout that has expired
// before the first bit and under timeouts that expire mid-run, inside
// the candidate search or either checker. An Unknown answer must never
// certify a pattern: every resolved bit is still correct, and every bit
// is accounted for as resolved or unresolved.
func TestSensitizeDeadline(t *testing.T) {
	orig := smallCircuit(t, 154, 319)
	locked, keyPos, key := xorLock(t, orig, 9, 419)
	for _, timeout := range []time.Duration{time.Nanosecond, 2 * time.Millisecond, 10 * time.Millisecond, 40 * time.Millisecond} {
		res, err := Sensitize(locked, keyPos, oracleFor(t, locked, keyPos, key), 16, timeout)
		if err != nil {
			t.Fatalf("timeout %v: %v", timeout, err)
		}
		if res.Resolved+res.Unresolved != len(keyPos) {
			t.Errorf("timeout %v: %d resolved + %d unresolved, want %d bits", timeout, res.Resolved, res.Unresolved, len(keyPos))
		}
		if res.Queries != res.Resolved {
			t.Errorf("timeout %v: %d queries for %d resolved bits", timeout, res.Queries, res.Resolved)
		}
		for i := range keyPos {
			if res.Mask[i] && res.Key[i] != key[i] {
				t.Errorf("timeout %v: bit %d resolved wrongly", timeout, i)
			}
		}
		if timeout == time.Nanosecond && res.Resolved != 0 {
			t.Errorf("expired deadline still resolved %d bits", res.Resolved)
		}
	}
}

// TestSensitizeCheckersUnknownIsNotProof pins the status mapping of
// both persistent checkers. The solver polls its deadline only every
// 256 search steps, so the netlist carries 300 noise key bits, each on
// its own output: a Sat answer needs one decision per noise bit, and
// under an expired deadline the query stops Unknown. Neither checker
// may read that as a proof, so key bit 0 stays non-golden either way.
func TestSensitizeCheckersUnknownIsNotProof(t *testing.T) {
	nl := netlist.New("unknown")
	x0, x1 := nl.AddInput("x0"), nl.AddInput("x1")
	var keyPos, k []int
	for j := 0; j < 302; j++ {
		keyPos = append(keyPos, len(nl.Inputs))
		k = append(k, nl.AddInput(fmt.Sprintf("keyinput%d", j)))
	}
	nl.MarkOutput(nl.AddGate("y0", netlist.Xor, x0, k[0], k[1]))                               // flips with k0, value moves with k1
	nl.MarkOutput(nl.AddGate("y1", netlist.Xor, x0, nl.AddGate("a", netlist.And, k[0], k[1]))) // flips with k0 only if k1
	for j := 2; j < len(k); j++ {
		nl.MarkOutput(nl.AddGate(fmt.Sprintf("z%d", j), netlist.Xor, x1, k[j]))
	}
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	funcPos, pattern := []int{0, 1}, []bool{false, false}
	for _, expired := range []bool{false, true} {
		deadline := time.Time{}
		want := sat.Sat
		if expired {
			deadline, want = time.Now().Add(-time.Second), sat.Unknown
		}
		vc, err := newConstancyCheck(nl, keyPos, funcPos, deadline)
		if err != nil {
			t.Fatal(err)
		}
		// Value constancy of y0 at k0=0: x0 ⊕ k1 is not constant.
		if st := vc.s.Solve(cnf.MkLit(vc.c1.Inputs[0], true), cnf.MkLit(vc.c1.Inputs[1], true),
			cnf.MkLit(vc.c1.Inputs[keyPos[0]], true), cnf.MkLit(vc.c2.Inputs[keyPos[0]], true), vc.diffs[0]); st != want {
			t.Fatalf("expired=%v: constancy query answered %v, want %v", expired, st, want)
		}
		if vc.constant(0, pattern, 0) {
			t.Errorf("expired=%v: constancy check certified a non-constant output", expired)
		}
		// Universality of k0 at y1: k1=0 makes the copies agree.
		f, c1, diffs, err := encodeBitMiter(nl, keyPos, 0)
		if err != nil {
			t.Fatal(err)
		}
		agree := loadSolver(f, deadline)
		assumps := []cnf.Lit{cnf.MkLit(c1.Inputs[0], true), cnf.MkLit(c1.Inputs[1], true), diffs[1].Not()}
		if st := agree.Solve(assumps...); st != want {
			t.Fatalf("expired=%v: universality query answered %v, want %v", expired, st, want)
		}
		if unsatUnder(agree, assumps...) {
			t.Errorf("expired=%v: universality check certified a bit the rest can mask", expired)
		}
	}
}

// BenchmarkSensitizeXOR times one sensitization run with budget 16 on
// a 200-gate, 16-input, 8-output random netlist under a 10-bit XOR
// lock, the instance shape of cmd/rilperf's attack-variants workload.
func BenchmarkSensitizeXOR(b *testing.B) {
	orig, err := netlist.Random(netlist.RandomProfile{Name: "xored", Inputs: 16, Outputs: 8, Gates: 200, Locality: 0.3}, 1)
	if err != nil {
		b.Fatal(err)
	}
	l, err := baselines.XORLock(orig, 10, 2)
	if err != nil {
		b.Fatal(err)
	}
	bound, err := l.Netlist.BindInputs(l.KeyPos, l.Key)
	if err != nil {
		b.Fatal(err)
	}
	oracle, err := NewSimOracle(bound)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Sensitize(l.Netlist, l.KeyPos, oracle, 16, time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Resolved), "resolved_bits")
	}
}

func TestSensitizeFailsOnRIL(t *testing.T) {
	// Every RIL key bit is entangled with the rest through the MUX
	// lattice: golden patterns must be (nearly) absent, and any bit the
	// attack does resolve must still be consistent with some correct
	// key — verify none are resolved to a provably wrong value by
	// checking the full-key substitution.
	orig := smallCircuit(t, 150, 73)
	rl, err := core.Lock(orig, core.Options{Blocks: 1, Size: core.Size8x8, Seed: 74})
	if err != nil {
		t.Fatal(err)
	}
	oracle := oracleFor(t, rl.Locked, rl.KeyInputPos, rl.Key)
	res, err := Sensitize(rl.Locked, rl.KeyInputPos, oracle, 4, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s", res)
	if res.Resolved > rl.KeyBits()/2 {
		t.Errorf("sensitization resolved %d/%d RIL key bits — blocks should entangle keys",
			res.Resolved, rl.KeyBits())
	}
	// Golden-pattern semantics guarantee correctness of resolved bits
	// only if a unique consistent key exists; RIL has key symmetry, so
	// just confirm the attack cannot finish the job.
	if res.Resolved == rl.KeyBits() {
		t.Error("sensitization fully recovered an RIL key")
	}
	// Pinned exactly, as in TestSensitizeGolden: no bit is resolved.
	zeros := strings.Repeat("0", rl.KeyBits())
	if got, want := goldenOf(res), (sensitizeGolden{zeros, zeros, 0, 0}); got != want {
		t.Errorf("got %+v, want %+v", got, want)
	}
}
