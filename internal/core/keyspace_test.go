package core

import (
	"math/big"
	"testing"
)

func TestLUTFunctionSpace(t *testing.T) {
	cases := map[int]int64{1: 4, 2: 16, 3: 256, 4: 65536}
	for m, want := range cases {
		if got := LUTFunctionSpace(m); got.Cmp(big.NewInt(want)) != 0 {
			t.Errorf("LUTFunctionSpace(%d) = %v, want %d", m, got, want)
		}
	}
	// The paper's 2^(2^m) growth: m=6 already exceeds 10^19.
	if LUTFunctionSpace(6).BitLen() != 65 {
		t.Errorf("2^64 should have 65 bits, got %d", LUTFunctionSpace(6).BitLen())
	}
}
