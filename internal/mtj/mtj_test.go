package mtj

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestResistanceOrdering(t *testing.T) {
	p := Default()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	rp := p.Resistance(Parallel)
	rap := p.Resistance(AntiParallel)
	if rp <= 0 || rap <= rp {
		t.Fatalf("R_P=%v R_AP=%v: want 0 < R_P < R_AP", rp, rap)
	}
	if got := rap / rp; math.Abs(got-(1+p.TMR)) > 1e-9 {
		t.Errorf("R_AP/R_P = %v, want 1+TMR = %v", got, 1+p.TMR)
	}
	// 45nm-class device: a few kΩ.
	if rp < 1e3 || rp > 20e3 {
		t.Errorf("R_P = %v Ω out of the expected kΩ range", rp)
	}
}

func TestCriticalCurrentScale(t *testing.T) {
	p := Default()
	ic := p.CriticalCurrent()
	if ic < 10e-6 || ic > 200e-6 {
		t.Errorf("Ic = %v A; STT devices sit in the tens of µA", ic)
	}
}

func TestSwitchingDelayRegimes(t *testing.T) {
	p := Default()
	ic := p.CriticalCurrent()
	fast := p.SwitchingDelay(3 * ic)
	slow := p.SwitchingDelay(1.2 * ic)
	sub := p.SwitchingDelay(0.5 * ic)
	if !(fast < slow) {
		t.Errorf("delay not monotone in overdrive: %v !< %v", fast, slow)
	}
	if fast > 2e-9 {
		t.Errorf("3×Ic switching took %v, want sub-2ns", fast)
	}
	if sub < 1 { // thermally activated: astronomically slow
		t.Errorf("sub-critical switching %v s suspiciously fast", sub)
	}
	if p.SwitchingDelay(0) != math.Inf(1) {
		t.Error("zero current must never switch")
	}
}

func TestVariationSampling(t *testing.T) {
	p := Default()
	v := DefaultVariation()
	rng := rand.New(rand.NewSource(1))
	const n = 2000
	var sumD, sumD2 float64
	for i := 0; i < n; i++ {
		q := p.Sample(v, rng)
		if err := q.Validate(); err != nil {
			t.Fatalf("sample %d invalid: %v", i, err)
		}
		rel := q.Diameter/p.Diameter - 1
		sumD += rel
		sumD2 += rel * rel
	}
	mean := sumD / n
	sigma := math.Sqrt(sumD2/n - mean*mean)
	if math.Abs(mean) > 0.002 {
		t.Errorf("diameter variation mean %v, want ~0", mean)
	}
	if sigma < 0.007 || sigma > 0.013 {
		t.Errorf("diameter variation sigma %v, want ~0.01", sigma)
	}
}

func TestComplementaryCellRead(t *testing.T) {
	p := Default()
	cell := NewCell(p, p)
	const vread = 0.8
	for _, bit := range []bool{false, true} {
		cell.Write(bit)
		got, margin := cell.ReadBit(vread)
		if got != bit {
			t.Errorf("stored %v, read %v", bit, got)
		}
		if margin < 0.05 {
			t.Errorf("sense margin %v V too small for a healthy device", margin)
		}
	}
}

func TestReadCurrentSymmetry(t *testing.T) {
	// The P-SCA mitigation hinges on this: complementary cells draw the
	// same read current for 0 and 1.
	p := Default()
	cell := NewCell(p, p)
	const vread = 0.8
	cell.Write(false)
	i0 := cell.ReadCurrent(vread)
	cell.Write(true)
	i1 := cell.ReadCurrent(vread)
	if math.Abs(i0-i1)/i0 > 1e-9 {
		t.Errorf("read currents differ: %v vs %v", i0, i1)
	}
}

func TestReadCurrentSymmetryUnderPV(t *testing.T) {
	// Even with process variation the asymmetry stays tiny, because the
	// series path always contains one P and one AP junction.
	p := Default()
	v := DefaultVariation()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		cell := p.SampleCell(v, rng)
		cell.Write(false)
		i0 := cell.ReadCurrent(0.8)
		cell.Write(true)
		i1 := cell.ReadCurrent(0.8)
		if rel := math.Abs(i0-i1) / i0; rel > 0.01 {
			t.Fatalf("instance %d: PV read-current asymmetry %v exceeds 1%%", i, rel)
		}
	}
}

func TestSenseMarginWideUnderPV(t *testing.T) {
	p := Default()
	v := DefaultVariation()
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 500; i++ {
		cell := NewCell(p.Sample(v, rng), p.Sample(v, rng))
		// |V(1) − V(0)| is the sum of the two reads' margins to vread/2.
		sum := 0.0
		for _, stored := range []bool{false, true} {
			cell.Write(stored)
			bit, m := cell.ReadBit(0.8)
			if bit != stored {
				t.Fatalf("instance %d: stored %v, read %v", i, stored, bit)
			}
			sum += m
		}
		if sum < 0.03 {
			t.Fatalf("instance %d: sense margin %v V collapsed under PV", i, sum)
		}
	}
}

func TestQuickDividerBounded(t *testing.T) {
	p := Default()
	f := func(bit bool, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cell := NewCell(p.Sample(DefaultVariation(), rng), p.Sample(DefaultVariation(), rng))
		cell.Write(bit)
		v := cell.DividerVoltage(0.8)
		return v > 0 && v < 0.8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	bad := Default()
	bad.TMR = -1
	if bad.Validate() == nil {
		t.Error("negative TMR accepted")
	}
	bad = Default()
	bad.Diameter = 0
	if bad.Validate() == nil {
		t.Error("zero diameter accepted")
	}
}
