package core

import (
	"testing"

	"repro/internal/netlist"
)

func lockForChain(t *testing.T) *Result {
	t.Helper()
	orig, err := netlist.Random(netlist.RandomProfile{
		Name: "sc", Inputs: 16, Outputs: 8, Gates: 250, Locality: 0.7,
	}, 29)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Lock(orig, Options{Blocks: 1, Size: Size8x8, Seed: 30})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestKeyChainHoldsKey(t *testing.T) {
	res := lockForChain(t)
	chain := NewKeyChain(res)
	if chain.Len() != res.KeyBits() {
		t.Fatalf("chain length %d, key bits %d", chain.Len(), res.KeyBits())
	}
	vals := chain.Values()
	for i, v := range vals {
		if v != res.Key[i] {
			t.Fatalf("cell %d holds %v, key bit is %v", i, v, res.Key[i])
		}
	}
}

func TestKeyChainScanOutGated(t *testing.T) {
	res := lockForChain(t)
	chain := NewKeyChain(res)
	leak := chain.ShiftOut(chain.Len())
	for i, b := range leak {
		if b {
			t.Fatalf("gated scan-out leaked a 1 at position %d", i)
		}
	}
}

func TestShiftAndScanAttackDefeated(t *testing.T) {
	res := lockForChain(t)
	learned, err := ShiftAndScanAttack(res, 7)
	if err != nil {
		t.Fatal(err)
	}
	if learned > 0 {
		t.Errorf("shift-and-scan attacker learned %d key bits beyond guessing", learned)
	}
}
