package lutsim

import (
	"math/rand"

	"repro/internal/logic"
)

// SRAMLUT is the conventional 6T-SRAM-based 2-input LUT the paper
// compares against (§II-A, §IV-E): volatile, leaky in standby, and —
// crucially for the side-channel analysis — with a data-dependent read
// power: reading a stored 0 discharges the precharged bitline while
// reading a 1 does not, so the read energy differs by a large, easily
// measurable factor.
type SRAMLUT struct {
	Cfg   Config
	cells [4]bool
	// BitlineCap is the effective bitline capacitance [F].
	BitlineCap float64
	// LeakPerCell is the standby leakage per 6T cell [A].
	LeakPerCell float64
	// asymmetric component (per-instance, PV-varied)
	dischargeFrac float64
}

// NewSRAM builds a nominal SRAM LUT at the same operating point.
func NewSRAM(cfg Config) *SRAMLUT {
	return &SRAMLUT{
		Cfg:           cfg,
		BitlineCap:    20e-15,
		LeakPerCell:   60e-9,
		dischargeFrac: 1.0,
	}
}

// SampleSRAM builds a PV instance.
func SampleSRAM(cfg Config, mv MOSVariation, rng *rand.Rand) *SRAMLUT {
	s := NewSRAM(cfg)
	s.BitlineCap *= 1 + 0.05*rng.NormFloat64()
	s.LeakPerCell *= 1 + mv.VthSigma*10*rng.Float64()
	s.dischargeFrac = 1 + 0.05*rng.NormFloat64()
	return s
}

// Configure programs the truth table (instant for SRAM).
func (s *SRAMLUT) Configure(f logic.Func2) {
	for a := 0; a < 2; a++ {
		for b := 0; b < 2; b++ {
			s.cells[a<<1|b] = f.Eval(a == 1, b == 1)
		}
	}
}

// Read evaluates the LUT. The returned report uses the same shape as
// the MRAM model; Current is the average bitline discharge current.
func (s *SRAMLUT) Read(a, b bool) ReadReport {
	idx := 0
	if a {
		idx += 2
	}
	if b {
		idx++
	}
	bit := s.cells[idx]
	// Precharge-and-discharge read: a stored 0 pulls the bitline low
	// (full CV² event); a stored 1 leaves it precharged (only a small
	// precharge top-up).
	var energy float64
	if bit {
		energy = 0.12 * s.BitlineCap * s.Cfg.Vdd * s.Cfg.Vdd * s.dischargeFrac
	} else {
		energy = s.BitlineCap * s.Cfg.Vdd * s.Cfg.Vdd * s.dischargeFrac
	}
	return ReadReport{
		Out:     bit,
		Raw:     bit,
		Energy:  energy,
		Power:   energy / s.Cfg.ReadPulse,
		Current: energy / s.Cfg.ReadPulse / s.Cfg.Vdd,
	}
}
