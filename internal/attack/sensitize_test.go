package attack

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
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
	return sensitizeGolden{key: BitString(res.Key), mask: BitString(res.Mask), resolved: res.Resolved, queries: res.Queries}
}

// sensitizeGoldenXOR attacks TestSensitizeGolden's XOR instance i:
// 40+6i gates, circuit seed 300+i, 4+i%7 key bits, lock seed 400+i,
// budget 16. It returns the result and the lock's key.
func sensitizeGoldenXOR(t *testing.T, i int) (*SensitizeResult, []bool) {
	t.Helper()
	orig := smallCircuit(t, 40+6*i, int64(300+i))
	locked, keyPos, key := xorLock(t, orig, 4+i%7, int64(400+i))
	res, err := Sensitize(locked, keyPos, oracleFor(t, locked, keyPos, key), 16, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	return res, key
}

// TestSensitizeGolden pins Sensitize's results on XOR-locked random
// circuits (sensitizeGoldenXOR); TestSensitizeFailsOnRIL pins its 8×8
// instance. The refutation checks are decision queries whose Sat/Unsat
// answers are fixed by semantics, but the candidate solver's search
// belongs to one SensitizeVersion: these pins are version 2's, both
// miters hashed (cnf.Hasher).
func TestSensitizeGolden(t *testing.T) {
	if SensitizeVersion != 2 {
		t.Fatalf("SensitizeVersion %d: re-record the pins", SensitizeVersion)
	}
	xorGoldens := []sensitizeGolden{
		{"0111", "0111", 3, 3},
		{"00000", "11010", 3, 3},
		{"101100", "101100", 3, 3},
		{"0001000", "0001000", 1, 1},
		{"00000000", "00010000", 1, 1},
		{"110000000", "111000010", 4, 4},
		{"0000000110", "0010000110", 3, 3},
		{"0000", "1001", 2, 2},
		{"00000", "00010", 1, 1},
		{"000000", "110000", 2, 2},
		{"0101000", "0111001", 4, 4},
		{"00000000", "00100000", 1, 1},
		{"001000001", "001000001", 2, 2},
		{"1000000010", "1000000010", 2, 2},
		{"0000", "0110", 2, 2},
		{"01000", "01001", 2, 2},
		{"000001", "001001", 2, 2},
		{"0100000", "0101000", 2, 2},
		{"00000010", "00000010", 1, 1},
		{"101010000", "101010000", 3, 3},
	}
	for i, want := range xorGoldens {
		res, key := sensitizeGoldenXOR(t, i)
		if got := goldenOf(res); got != want {
			t.Errorf("xor instance %d: got %+v, want %+v", i, got, want)
		}
		for b, ok := range res.Mask {
			if ok && res.Key[b] != key[b] {
				t.Errorf("xor instance %d: bit %d resolved wrongly", i, b)
			}
		}
	}
}

// TestSensitizeWorkerCount runs TestSensitizeGolden's XOR instances at
// GOMAXPROCS 1 and 2: the key-bit searches run on one worker, then on
// two, and every result must be the same.
func TestSensitizeWorkerCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for i := 0; i < 20; i++ {
		var results [2]*SensitizeResult
		for w := range results {
			runtime.GOMAXPROCS(w + 1)
			results[w], _ = sensitizeGoldenXOR(t, i)
		}
		one, two := results[0], results[1]
		if goldenOf(one) != goldenOf(two) || one.Unresolved != two.Unresolved {
			t.Errorf("xor instance %d: %+v (unresolved %d) at GOMAXPROCS 1, %+v (unresolved %d) at 2",
				i, goldenOf(one), one.Unresolved, goldenOf(two), two.Unresolved)
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
		if st := vc.s.Solve(vc.in1[0].Not(), vc.in1[1].Not(),
			vc.in1[keyPos[0]].Not(), vc.in2[keyPos[0]].Not(), vc.diffs[0]); st != want {
			t.Fatalf("expired=%v: constancy query answered %v, want %v", expired, st, want)
		}
		if vc.constant(0, pattern, 0) {
			t.Errorf("expired=%v: constancy check certified a non-constant output", expired)
		}
		// Universality of k0 at y1: k1=0 makes the copies agree.
		f, in, diffs, err := encodeBitMiter(nl, keyPos, 0)
		if err != nil {
			t.Fatal(err)
		}
		agree := loadSolver(f, deadline)
		assumps := []cnf.Lit{in[0].Not(), in[1].Not(), diffs[1].Not()}
		if st := agree.Solve(assumps...); st != want {
			t.Fatalf("expired=%v: universality query answered %v, want %v", expired, st, want)
		}
		if unsatUnder(agree, assumps...) {
			t.Errorf("expired=%v: universality check certified a bit the rest can mask", expired)
		}
	}
}

// miterView is what TestSensitizeMitersEquisatisfiable reads of one
// miter loaded in a solver: each copy's input literals, a bound input
// being LitFalse or LitTrue, and each output's difference literal.
type miterView struct {
	s        *sat.Solver
	in1, in2 []cnf.Lit
	diffs    []cnf.Lit
}

// fullCopies is the reference both hashed miters are checked against:
// two full Encoder.Encode copies of nl that share the inputs at the
// shared positions, one XOR per output, loaded in a solver.
func fullCopies(t *testing.T, nl *netlist.Netlist, shared []int) miterView {
	t.Helper()
	enc := cnf.NewEncoder()
	c1, err := enc.Encode(nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	share := make(map[int]cnf.Var, len(shared))
	for _, p := range shared {
		share[p] = c1.Inputs[p]
	}
	c2, err := enc.Encode(nl, share)
	if err != nil {
		t.Fatal(err)
	}
	v := miterView{diffs: encodeDiffs(enc, c1, c2), s: loadSolver(enc.F, time.Time{})}
	for p := range c1.Inputs {
		v.in1 = append(v.in1, cnf.MkLit(c1.Inputs[p], false))
		v.in2 = append(v.in2, cnf.MkLit(c2.Inputs[p], false))
	}
	return v
}

// solveWith answers the miter under the assumptions and d, which may
// be a constant: LitFalse is unsatisfiable and LitTrue adds nothing,
// so no constant reaches the solver.
func solveWith(s *sat.Solver, d cnf.Lit, assumps ...cnf.Lit) sat.Status {
	switch d {
	case cnf.LitFalse:
		return sat.Unsat
	case cnf.LitTrue:
		return s.Solve(assumps...)
	}
	return s.Solve(append(assumps, d)...)
}

// someDiffersUnder answers "some output differs" under the
// assumptions. It adds the clause (someDiffers) behind a fresh
// activation literal, so the solver answers its other queries as
// before.
func someDiffersUnder(s *sat.Solver, diffs []cnf.Lit, assumps ...cnf.Lit) sat.Status {
	clause, always := someDiffers(diffs)
	if always {
		return s.Solve(assumps...)
	}
	act := s.NewVar()
	s.AddClause(append(clause, cnf.MkLit(act, true))...)
	return s.Solve(append(assumps, cnf.MkLit(act, false))...)
}

// modelValues reads the literals in s's model; a constant reads as
// itself.
func modelValues(s *sat.Solver, lits []cnf.Lit) []bool {
	vals := make([]bool, len(lits))
	for i, l := range lits {
		vals[i] = l == cnf.LitTrue || l != cnf.LitFalse && s.ModelValue(l)
	}
	return vals
}

// compareMiters puts the same queries to a hashed miter and its
// two-full-copy reference, each under its own assumptions: every
// output's "differs" and "agrees", and "some output differs", must get
// the same answer. A model of the last, simulated at both copies'
// inputs as it reads them, must differ at an output. It reports
// whether "some output differs" was satisfiable.
func compareMiters(t *testing.T, name string, sim *netlist.Simulator, hashed, ref miterView, ha, ra []cnf.Lit) bool {
	t.Helper()
	for o := range hashed.diffs {
		for _, agree := range []bool{false, true} {
			hd, rd := hashed.diffs[o], ref.diffs[o]
			if agree {
				hd, rd = hd.Not(), rd.Not()
			}
			if got, want := solveWith(hashed.s, hd, ha...), solveWith(ref.s, rd, ra...); got != want {
				t.Fatalf("%s: output %d agrees=%v: hashed %v, two full copies %v", name, o, agree, got, want)
			}
		}
	}
	got, want := someDiffersUnder(hashed.s, hashed.diffs, ha...), someDiffersUnder(ref.s, ref.diffs, ra...)
	if got != want {
		t.Fatalf("%s: some output differs: hashed %v, two full copies %v", name, got, want)
	}
	if got != sat.Sat {
		return false
	}
	out1 := sim.Eval(modelValues(hashed.s, hashed.in1))
	out2 := sim.Eval(modelValues(hashed.s, hashed.in2))
	if slices.Equal(out1, out2) {
		t.Fatalf("%s: the hashed model's copies agree at every output", name)
	}
	return true
}

// TestSensitizeMitersEquisatisfiable checks both of Sensitize's hashed
// miters against two full Encoder.Encode copies, on random netlists
// with 1–3 random key inputs and on RIL locks with one 2×2 block, under
// random assignments of the functional inputs X. The bit miter of
// every key bit ki leaves K_rest free; its reference shares X and
// K_rest, with ki=0 in copy 1 and ki=1 in copy 2. The constancy miter
// is queried with ki=0 in both copies, as Sensitize queries it; its
// reference shares X only.
func TestSensitizeMitersEquisatisfiable(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	type lock struct {
		nl     *netlist.Netlist
		keyPos []int
	}
	var locks []lock
	mixes := []map[netlist.GateType]float64{nil, {
		netlist.And: 1, netlist.Nand: 1, netlist.Or: 1, netlist.Nor: 1,
		netlist.Xor: 2, netlist.Xnor: 2, netlist.Not: 1, netlist.Buf: 1,
	}}
	for i := 0; i < 40; i++ {
		p := netlist.RandomProfile{Name: "miter", Inputs: 8, Outputs: 4, Gates: 30 + rng.Intn(30),
			Mix: mixes[i%2], MaxFanin: 3, Locality: 0.5}
		nl, err := netlist.Random(p, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		locks = append(locks, lock{nl, rng.Perm(len(nl.Inputs))[:1+rng.Intn(3)]})
	}
	for seed := int64(1); seed <= 3; seed++ {
		rl, err := core.Lock(smallCircuit(t, 40, seed), core.Options{Blocks: 1, Size: core.Size2x2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		locks = append(locks, lock{rl.Locked, rl.KeyInputPos})
	}
	sats := 0
	for i, c := range locks {
		funcPos, err := splitInputs(c.nl, c.keyPos)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := netlist.NewSimulator(c.nl)
		if err != nil {
			t.Fatal(err)
		}
		vc, err := newConstancyCheck(c.nl, c.keyPos, funcPos, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		constancy := miterView{s: vc.s, in1: vc.in1, in2: vc.in2, diffs: vc.diffs}
		constancyRef := fullCopies(t, c.nl, funcPos)
		for trial := 0; trial < 2; trial++ {
			x := make([]bool, len(funcPos))
			for j := range x {
				x[j] = rng.Intn(2) == 1
			}
			// fixX pins X in a view's first copy, which shares it.
			fixX := func(v miterView) []cnf.Lit {
				a := make([]cnf.Lit, len(funcPos))
				for j, p := range funcPos {
					a[j] = cnf.MkLit(v.in1[p].Var(), !x[j])
				}
				return a
			}
			for bit, kp := range c.keyPos {
				name := fmt.Sprintf("lock %d trial %d bit %d", i, trial, bit)
				f, in, diffs, err := encodeBitMiter(c.nl, c.keyPos, bit)
				if err != nil {
					t.Fatal(err)
				}
				hashed := miterView{s: loadSolver(f, time.Time{}), in1: slices.Clone(in), in2: slices.Clone(in), diffs: diffs}
				hashed.in1[kp], hashed.in2[kp] = cnf.LitFalse, cnf.LitTrue
				shared := slices.Clone(funcPos)
				for _, k := range c.keyPos {
					if k != kp {
						shared = append(shared, k)
					}
				}
				ref := fullCopies(t, c.nl, shared)
				ref.s.AddClause(ref.in1[kp].Not())
				ref.s.AddClause(ref.in2[kp])
				if compareMiters(t, name+" bit miter", sim, hashed, ref, fixX(hashed), fixX(ref)) {
					sats++
				}
				// ki = 0 in both copies of the constancy miter.
				ha := append(fixX(constancy), constancy.in1[kp].Not(), constancy.in2[kp].Not())
				ra := append(fixX(constancyRef), constancyRef.in1[kp].Not(), constancyRef.in2[kp].Not())
				if compareMiters(t, name+" constancy miter", sim, constancy, constancyRef, ha, ra) {
					sats++
				}
			}
		}
	}
	if sats == 0 {
		t.Fatal("no query was satisfiable: the test checked no model")
	}
	t.Logf("%d satisfiable \"some output differs\" queries", sats)
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
