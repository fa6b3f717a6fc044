package netlint_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/netlint"
	"repro/internal/netlist"
	"repro/internal/opt"
	"repro/internal/testutil"
)

// foldedEqual is key-const-prop's structural proof before it hashed:
// constant-fold clones of both cofactors with opt.Optimize and compare
// their primary outputs' canonical forms under hash-consing. Every
// gate is interned by (type, canonical fanins) — fanins sorted for
// commutative gates, inputs grounded by name, constants by value — in
// a table shared across the two netlists, so isomorphic DAGs receive
// identical output signatures regardless of gate numbering.
func foldedEqual(a, b *netlist.Netlist) bool {
	interned := map[string]int{}
	sa, ok := foldCanon(a, interned)
	if !ok {
		return false
	}
	sb, ok := foldCanon(b, interned)
	return ok && sa == sb
}

func foldCanon(src *netlist.Netlist, interned map[string]int) (string, bool) {
	c := src.Clone()
	if _, err := opt.Optimize(c); err != nil {
		return "", false
	}
	order, err := c.TopoOrder()
	if err != nil {
		return "", false
	}
	idOf := make([]int, len(c.Gates))
	intern := func(key string) int {
		n, ok := interned[key]
		if !ok {
			n = len(interned)
			interned[key] = n
		}
		return n
	}
	for _, id := range order {
		g := &c.Gates[id]
		var key string
		switch g.Type {
		case netlist.Input:
			key = "i:" + g.Name
		case netlist.Const0:
			key = "0"
		case netlist.Const1:
			key = "1"
		default:
			kids := make([]int, len(g.Fanin))
			for i, f := range g.Fanin {
				kids[i] = idOf[f]
			}
			switch g.Type {
			case netlist.And, netlist.Nand, netlist.Or, netlist.Nor, netlist.Xor, netlist.Xnor:
				sort.Ints(kids)
			}
			key = fmt.Sprintf("%d:%v", g.Type, kids)
		}
		idOf[id] = intern(key)
	}
	var sig strings.Builder
	for _, o := range c.Outputs {
		fmt.Fprintf(&sig, "%d,", idOf[o])
	}
	return sig.String(), true
}

// foldedConstOutputs is key-const-prop's constant-output count before
// it hashed: optimize a clone of the cofactor and count the distinct
// primary-output gates left constant.
func foldedConstOutputs(src *netlist.Netlist) int {
	c := src.Clone()
	if _, err := opt.Optimize(c); err != nil {
		return 0
	}
	n := 0
	seen := map[int]bool{}
	for _, o := range c.Outputs {
		if seen[o] {
			continue
		}
		seen[o] = true
		if t := c.Gates[o].Type; t == netlist.Const0 || t == netlist.Const1 {
			n++
		}
	}
	return n
}

// cofactorLock draws one lock for the differential: scheme 0 XOR-locks
// a random circuit, 1 puts one 2×2 RIL-Block in it and 2 plants the
// audit fixture's redundant key bits (testutil.PlantAuditFixture).
func cofactorLock(t *testing.T, seed int64, scheme uint8) (*netlist.Netlist, []int) {
	t.Helper()
	orig := testutil.RandomCircuit(t, 6+int(uint64(seed)%6), 3, 30+int(uint64(seed)%30), seed)
	switch scheme % 3 {
	case 0:
		locked, keyPos, _ := testutil.XORLock(t, orig, 2+int(uint64(seed)%5), seed)
		return locked, keyPos
	case 1:
		rl, err := core.Lock(orig, core.Options{Blocks: 1, Size: core.Size2x2, Seed: seed})
		if err != nil {
			t.Skipf("seed %d: %v", seed, err)
		}
		return rl.Locked, rl.KeyInputPos
	}
	locked, keyPos, _, _ := testutil.PlantAuditFixture(t, orig)
	return locked, keyPos
}

// checkCofactorProofs runs every cofactor check key-const-prop can make
// on the lock, each single key bit (0 against 1) and each pair (00
// against 11, 01 against 10), through the reference (foldedEqual) and
// the hasher. Every check the reference proves equal the hasher must
// prove equal, and no single-bit cofactor may hash to fewer constant
// outputs than the optimizer folds. It returns the number of checks
// the reference proved and the number only the hasher proved.
func checkCofactorProofs(t *testing.T, nl *netlist.Netlist, keyPos []int) (proved, gained int) {
	t.Helper()
	check := func(pos []int, a, b []bool, single bool) {
		t.Helper()
		ca, err := nl.BindInputs(pos, a)
		if err != nil {
			t.Fatal(err)
		}
		cb, err := nl.BindInputs(pos, b)
		if err != nil {
			t.Fatal(err)
		}
		eq, constA, constB, err := netlint.HashedCofactors(nl, pos, a, b)
		if err != nil {
			t.Fatal(err)
		}
		switch ref := foldedEqual(ca, cb); {
		case ref && !eq:
			t.Fatalf("inputs %v at %v and %v: the optimizer proves the cofactors equal, the hasher does not", pos, a, b)
		case ref:
			proved++
		case eq:
			gained++
		}
		if !single {
			return
		}
		if ref, got := foldedConstOutputs(ca), constA; got < ref {
			t.Fatalf("input %v at %v: the optimizer folds %d outputs to constants, the hasher %d", pos, a, ref, got)
		}
		if ref, got := foldedConstOutputs(cb), constB; got < ref {
			t.Fatalf("input %v at %v: the optimizer folds %d outputs to constants, the hasher %d", pos, b, ref, got)
		}
	}
	for i, pi := range keyPos {
		check([]int{pi}, []bool{false}, []bool{true}, true)
		for _, pj := range keyPos[i+1:] {
			pos := []int{pi, pj}
			check(pos, []bool{false, false}, []bool{true, true}, false)
			check(pos, []bool{false, true}, []bool{true, false}, false)
		}
	}
	return proved, gained
}

// FuzzCofactorProof is the differential behind key-const-prop's
// structural proof (checkCofactorProofs) on XOR, RIL and planted locks
// of random circuits.
func FuzzCofactorProof(f *testing.F) {
	for seed := int64(1); seed <= 6; seed++ {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, scheme uint8) {
		nl, keyPos := cofactorLock(t, seed, scheme)
		checkCofactorProofs(t, nl, keyPos)
	})
}

// TestCofactorProofDifferential runs checkCofactorProofs over fixed
// seeds of every scheme and requires the reference to prove some
// checks, so the differential compares proofs and not only refusals.
func TestCofactorProofDifferential(t *testing.T) {
	proved, gained := 0, 0
	for seed := int64(1); seed <= 12; seed++ {
		for scheme := uint8(0); scheme < 3; scheme++ {
			t.Run(fmt.Sprintf("seed%d/scheme%d", seed, scheme), func(t *testing.T) {
				nl, keyPos := cofactorLock(t, seed, scheme)
				p, g := checkCofactorProofs(t, nl, keyPos)
				proved += p
				gained += g
			})
		}
	}
	if proved == 0 {
		t.Fatal("the reference proved no check: the differential compared nothing")
	}
	t.Logf("%d checks proved by both, %d by the hasher only", proved, gained)
}
