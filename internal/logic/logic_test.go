package logic

import (
	"testing"
	"testing/quick"
)

func TestFunc2Eval(t *testing.T) {
	cases := []struct {
		f    Func2
		want [4]bool // f(0,0), f(0,1), f(1,0), f(1,1)
	}{
		{Const0, [4]bool{false, false, false, false}},
		{Const1, [4]bool{true, true, true, true}},
		{AND, [4]bool{false, false, false, true}},
		{OR, [4]bool{false, true, true, true}},
		{NAND, [4]bool{true, true, true, false}},
		{NOR, [4]bool{true, false, false, false}},
		{XOR, [4]bool{false, true, true, false}},
		{XNOR, [4]bool{true, false, false, true}},
		{BufA, [4]bool{false, false, true, true}},
		{BufB, [4]bool{false, true, false, true}},
		{NotA, [4]bool{true, true, false, false}},
		{NotB, [4]bool{true, false, true, false}},
		{AnotB, [4]bool{false, false, true, false}},
		{NotAAndB, [4]bool{false, true, false, false}},
		// A NAND notB = NOT A OR B: f(0,0)=1 f(0,1)=1 f(1,0)=0 f(1,1)=1
		{AnandNB, [4]bool{true, true, false, true}},
		// notA NAND B = A OR NOT B: f(0,0)=1 f(0,1)=0 f(1,0)=1 f(1,1)=1
		{NAnotB, [4]bool{true, false, true, true}},
	}
	for _, c := range cases {
		for i := 0; i < 4; i++ {
			a, b := i>>1 == 1, i&1 == 1
			if got := c.f.Eval(a, b); got != c.want[i] {
				t.Errorf("%s.Eval(%v,%v) = %v, want %v", c.f, a, b, got, c.want[i])
			}
		}
	}
}

// FromKeys reconstructs a function from Table-II key bits K1..K4: the
// inverse that checks Keys.
func FromKeys(k [4]bool) Func2 {
	var f Func2
	if k[0] {
		f |= 1 << 3
	}
	if k[1] {
		f |= 1 << 2
	}
	if k[2] {
		f |= 1 << 1
	}
	if k[3] {
		f |= 1 << 0
	}
	return f
}

func TestTable2KeyEncodings(t *testing.T) {
	// Paper Table II: selected rows with explicit K1..K4.
	cases := []struct {
		f Func2
		k [4]bool
	}{
		{Const0, [4]bool{false, false, false, false}},
		{Const1, [4]bool{true, true, true, true}},
		{NOR, [4]bool{false, false, false, true}},
		{OR, [4]bool{true, true, true, false}},
		{NotAAndB, [4]bool{false, false, true, false}},
		{NotA, [4]bool{false, false, true, true}},
		{AnotB, [4]bool{false, true, false, false}},
		{NotB, [4]bool{false, true, false, true}},
		{XOR, [4]bool{false, true, true, false}},
		{NAND, [4]bool{false, true, true, true}},
		{BufB, [4]bool{true, false, true, false}},
		{XNOR, [4]bool{true, false, false, true}},
		{AND, [4]bool{true, false, false, false}},
		{BufA, [4]bool{true, true, false, false}},
	}
	for _, c := range cases {
		if got := c.f.Keys(); got != c.k {
			t.Errorf("%s.Keys() = %v, want %v", c.f, got, c.k)
		}
		if got := FromKeys(c.k); got != c.f {
			t.Errorf("FromKeys(%v) = %s, want %s", c.k, got, c.f)
		}
	}
}

func TestKeysRoundTrip(t *testing.T) {
	for _, f := range AllFunc2() {
		if got := FromKeys(f.Keys()); got != f {
			t.Errorf("round trip %s -> %v -> %s", f, f.Keys(), got)
		}
	}
}

func TestAllFunc2Complete(t *testing.T) {
	seen := map[Func2]bool{}
	for _, f := range AllFunc2() {
		if seen[f] {
			t.Errorf("duplicate function %s (0x%X)", f, uint8(f))
		}
		seen[f] = true
	}
	if len(seen) != 16 {
		t.Fatalf("AllFunc2 returned %d distinct functions, want 16", len(seen))
	}
}

func TestInvert(t *testing.T) {
	for _, f := range AllFunc2() {
		g := f.Invert()
		for i := 0; i < 4; i++ {
			a, b := i>>1 == 1, i&1 == 1
			if g.Eval(a, b) == f.Eval(a, b) {
				t.Errorf("%s.Invert() not complementary at (%v,%v)", f, a, b)
			}
		}
	}
	if AND.Invert() != NAND || OR.Invert() != NOR || XOR.Invert() != XNOR {
		t.Error("named complements do not match")
	}
}

func TestSwapInputs(t *testing.T) {
	for _, f := range AllFunc2() {
		g := f.SwapInputs()
		for i := 0; i < 4; i++ {
			a, b := i>>1 == 1, i&1 == 1
			if g.Eval(a, b) != f.Eval(b, a) {
				t.Errorf("%s.SwapInputs() wrong at (%v,%v)", f, a, b)
			}
		}
		if g.SwapInputs() != f {
			t.Errorf("SwapInputs not involutive for %s", f)
		}
	}
}

func TestDependence(t *testing.T) {
	if Const0.DependsOnA() || Const1.DependsOnB() {
		t.Error("constants must not depend on inputs")
	}
	if !BufA.DependsOnA() || BufA.DependsOnB() {
		t.Error("BufA dependence wrong")
	}
	if BufB.DependsOnA() || !BufB.DependsOnB() {
		t.Error("BufB dependence wrong")
	}
	if !AND.DependsOnA() || !AND.DependsOnB() {
		t.Error("AND must depend on both")
	}
}

func TestTTBasics(t *testing.T) {
	tt := NewTT(3)
	if tt.Rows() != 8 {
		t.Fatalf("unexpected geometry %d rows", tt.Rows())
	}
	tt.Set(5, true)
	if !tt.Get(5) || tt.Get(4) {
		t.Error("Set/Get mismatch")
	}
	tt.Set(5, false)
	if tt.Get(5) {
		t.Error("Set false did not clear row 5")
	}
}

func TestTTLarge(t *testing.T) {
	// Cross the word boundary (n=7 -> 128 rows, two words).
	tt := NewTT(7)
	tt.Set(127, true)
	tt.Set(63, true)
	if !tt.Get(127) || !tt.Get(63) || tt.Get(64) || tt.Get(0) {
		t.Error("cross-word Get wrong")
	}
}

func TestTTString(t *testing.T) {
	tt := NewTT(2)
	tt.Set(1|1<<1, true) // AND: true only at A=1, B=1
	// rows ordered A + 2B: (0,0)(1,0)(0,1)(1,1) -> 0001
	if got := tt.String(); got != "0001" {
		t.Errorf("AND table string = %q, want 0001", got)
	}
}

func TestNewTTPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewTT(21) should panic")
		}
	}()
	NewTT(21)
}

// Property: FromKeys and Keys are mutual inverses over random key vectors.
func TestQuickKeysInverse(t *testing.T) {
	f := func(k1, k2, k3, k4 bool) bool {
		k := [4]bool{k1, k2, k3, k4}
		return FromKeys(k).Keys() == k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
