package lutsim

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/logic"
	"repro/internal/mtj"
)

func TestConfigureAndReadAllFunctions(t *testing.T) {
	cfg := DefaultConfig()
	for _, f := range logic.AllFunc2() {
		l := New(cfg)
		reps := l.Configure(f)
		for i, r := range reps {
			if r.Error {
				t.Fatalf("%s: write %d failed (delay %v, pulse %v)", f, i, r.Delay, cfg.WritePulse)
			}
		}
		for idx := 0; idx < 4; idx++ {
			a, b := idx>>1 == 1, idx&1 == 1
			rep := l.Read(a, b, false)
			if rep.Error {
				t.Fatalf("%s: read error at (%v,%v)", f, a, b)
			}
			if rep.Out != f.Eval(a, b) {
				t.Errorf("%s(%v,%v) = %v, want %v", f, a, b, rep.Out, f.Eval(a, b))
			}
		}
	}
}

func TestScanEnableInversion(t *testing.T) {
	cfg := DefaultConfig()
	l := New(cfg)
	l.Configure(logic.OR)
	l.SetSE(true)
	for idx := 0; idx < 4; idx++ {
		a, b := idx>>1 == 1, idx&1 == 1
		plain := l.Read(a, b, false)
		scan := l.Read(a, b, true)
		if scan.Out == plain.Out {
			t.Errorf("SE=1 with MTJ_SE=1 must invert OUT at (%v,%v)", a, b)
		}
		// Paper §IV-C: OR + inversion is indistinguishable from NOR.
		if scan.Out != logic.NOR.Eval(a, b) {
			t.Errorf("scan-mode OR should read as NOR at (%v,%v)", a, b)
		}
	}
	l.SetSE(false)
	for idx := 0; idx < 4; idx++ {
		a, b := idx>>1 == 1, idx&1 == 1
		if l.Read(a, b, true).Out != logic.OR.Eval(a, b) {
			t.Error("SE asserted with MTJ_SE=0 must not invert")
		}
	}
}

func TestEnergyTableShape(t *testing.T) {
	rows, err := EnergyTableFrom(New(DefaultConfig()), logic.AND)
	if err != nil {
		t.Fatal(err)
	}
	avg := rows[2]
	// Order-of-magnitude calibration against Table IV.
	if avg.Read < 2e-15 || avg.Read > 60e-15 {
		t.Errorf("read energy %v J outside the expected fJ range", avg.Read)
	}
	if avg.Write < 10e-15 || avg.Write > 200e-15 {
		t.Errorf("write energy %v J outside the expected tens-of-fJ range", avg.Write)
	}
	if avg.Standby < 5e-18 || avg.Standby > 200e-18 {
		t.Errorf("standby energy %v J outside the expected aJ range", avg.Standby)
	}
	// Shape: standby ≪ read < write.
	if !(avg.Standby < avg.Read/100) {
		t.Errorf("standby %v not ≪ read %v", avg.Standby, avg.Read)
	}
	if !(avg.Read < avg.Write) {
		t.Errorf("read %v not < write %v", avg.Read, avg.Write)
	}
	// Symmetry: logic-0 and logic-1 read within 1%.
	if d := math.Abs(rows[0].Read-rows[1].Read) / avg.Read; d > 0.01 {
		t.Errorf("read energy asymmetry %v > 1%%", d)
	}
}

func TestEnergyAsymmetryTinyUnderPV(t *testing.T) {
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(5))
	l := Sample(cfg, mtj.DefaultVariation(), DefaultMOSVariation(), rng)
	rows, err := EnergyTableFrom(l, logic.AND)
	if err != nil {
		t.Fatal(err)
	}
	d := math.Abs(rows[0].Read-rows[1].Read) / rows[2].Read
	if d == 0 {
		t.Log("sampled instance has exactly symmetric reads (unlikely but fine)")
	}
	if d > 0.02 {
		t.Errorf("PV read asymmetry %v > 2%% — would leak through power", d)
	}
}

func TestMonteCarloFig6(t *testing.T) {
	res := MonteCarlo(DefaultConfig(), logic.AND, 100, 42)
	if res.Instances != 100 {
		t.Fatal("instance count wrong")
	}
	// §IV-D: error-free across 100 instances.
	if res.ReadErrors != 0 || res.WriteErrors != 0 {
		t.Errorf("errors under PV: %d read, %d write", res.ReadErrors, res.WriteErrors)
	}
	// Fig. 6c: R_AP and R_P clearly separated (wide read margin).
	if sep := res.MarginSeparation(); sep <= 0 {
		t.Errorf("R_AP and R_P distributions overlap (separation %v)", sep)
	}
	// Fig. 6a/6b: read-0 and read-1 power distributions overlap almost
	// completely.
	if ov := res.PowerOverlap(); ov > 0.5 {
		t.Errorf("power distributions separated by %v sigma — P-SCA leak", ov)
	}
	// Sanity: currents in the tens of µA.
	if res.ReadCurrent0.Mean < 10e-6 || res.ReadCurrent0.Mean > 200e-6 {
		t.Errorf("mean read current %v A implausible", res.ReadCurrent0.Mean)
	}
}

func TestDistributionStats(t *testing.T) {
	d := newDistribution([]float64{1, 2, 3, 4, 5})
	if d.Mean != 3 || d.Min != 1 || d.Max != 5 {
		t.Errorf("stats wrong: %+v", d)
	}
	if math.Abs(d.Sigma-math.Sqrt(2)) > 1e-12 {
		t.Errorf("sigma = %v, want sqrt(2)", d.Sigma)
	}
}

func TestTransientFig5(t *testing.T) {
	w, err := Transient(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Points) == 0 {
		t.Fatal("empty waveform")
	}
	// Time must be strictly increasing.
	for i := 1; i < len(w.Points); i++ {
		if w.Points[i].T <= w.Points[i-1].T {
			t.Fatalf("time not monotone at %d", i)
		}
	}
	names := w.SignalNames()
	for _, want := range []string{"WE", "RE", "SE", "A", "B", "OUT", "Iread_uA"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("signal %s missing", want)
		}
	}
	// Phase (a): AND reads — OUT high only for A=B=1 (last of first 4 reads).
	_, outs := w.Signal("OUT")
	_, res := w.Signal("RE")
	var readOuts []float64
	for i := range outs {
		if res[i] > 0 {
			readOuts = append(readOuts, outs[i])
		}
	}
	if len(readOuts) != 12 {
		t.Fatalf("expected 12 read samples (3 phases × 4), got %d", len(readOuts))
	}
	andWant := []float64{0, 0, 0, 1} // inputs 00,01,10,11
	norWant := []float64{1, 0, 0, 0}
	norScanWant := []float64{0, 1, 1, 1} // inverted by SE cell
	check := func(base int, want []float64, label string) {
		for i, wv := range want {
			got := readOuts[base+i] / DefaultConfig().Vdd
			if got != wv {
				t.Errorf("%s read %d: OUT=%v, want %v", label, i, got, wv)
			}
		}
	}
	check(0, andWant, "AND")
	check(4, norWant, "NOR")
	check(8, norScanWant, "NOR/scan")
}

func TestWaveformCSV(t *testing.T) {
	w, err := Transient(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := w.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(w.Points)+1 {
		t.Errorf("CSV has %d lines, want %d", len(lines), len(w.Points)+1)
	}
	if !strings.HasPrefix(lines[0], "t_ns,") {
		t.Errorf("CSV header %q", lines[0])
	}
}

func TestSRAMAsymmetricRead(t *testing.T) {
	s := NewSRAM(DefaultConfig())
	s.Configure(logic.AND)
	var e0, e1 float64
	for idx := 0; idx < 4; idx++ {
		a, b := idx>>1 == 1, idx&1 == 1
		rep := s.Read(a, b)
		if rep.Out != logic.AND.Eval(a, b) {
			t.Errorf("SRAM read wrong at (%v,%v)", a, b)
		}
		if rep.Out {
			e1 = rep.Energy
		} else {
			e0 = rep.Energy
		}
	}
	// The SRAM read energy must be strongly data-dependent — this is
	// the leak CPA exploits.
	if ratio := e0 / e1; ratio < 2 {
		t.Errorf("SRAM read energy ratio %v — model should be asymmetric", ratio)
	}
}

func TestSampleSRAMDeterministicShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := SampleSRAM(DefaultConfig(), DefaultMOSVariation(), rng)
	s.Configure(logic.XOR)
	for idx := 0; idx < 4; idx++ {
		a, b := idx>>1 == 1, idx&1 == 1
		if s.Read(a, b).Out != logic.XOR.Eval(a, b) {
			t.Error("sampled SRAM misreads")
		}
	}
}

func TestMonteCarloDeterministic(t *testing.T) {
	a := MonteCarlo(DefaultConfig(), logic.AND, 20, 7)
	b := MonteCarlo(DefaultConfig(), logic.AND, 20, 7)
	if a.ReadPower0.Mean != b.ReadPower0.Mean || a.RP.Sigma != b.RP.Sigma {
		t.Error("Monte Carlo not deterministic for equal seeds")
	}
}
