// Package mtj models the Spin Transfer Torque Magnetic Tunnel Junction
// (STT-MTJ) devices from which the paper's MRAM-based LUTs are built.
// The model is behavioural, in the spirit of the technology-agnostic
// SPICE macro-model the paper adopts from Kim et al. [20]: geometry and
// material parameters map to the parallel/anti-parallel resistances
// (via the resistance-area product and TMR), the critical switching
// current, a Sun-model switching delay, and thermal retention. A
// process-variation sampler reproduces the paper's Monte-Carlo recipe
// (±1 % MTJ dimensions; the CMOS periphery varies separately in
// internal/lutsim).
package mtj

import (
	"fmt"
	"math"
	"math/rand"
)

// State is the magnetic state of the free layer.
type State int

// MTJ states: parallel (low resistance, logic-friendly "P") and
// anti-parallel (high resistance, "AP").
const (
	Parallel State = iota
	AntiParallel
)

func (s State) String() string {
	if s == Parallel {
		return "P"
	}
	return "AP"
}

// Params collects the device parameters. Defaults follow a 45 nm
// STT-MRAM node (circular MTJ, MgO barrier).
type Params struct {
	Diameter float64 // free-layer diameter [m]
	TOxide   float64 // MgO barrier thickness [m]
	RA       float64 // resistance-area product, parallel state [Ω·m²]
	TMR      float64 // tunnel magnetoresistance ratio (R_AP = R_P·(1+TMR))
	Jc0      float64 // critical switching current density [A/m²]
	Delta    float64 // thermal stability factor Δ = E_b/kT
	Tau0     float64 // attempt time [s]
	TempK    float64 // operating temperature [K]
}

// Default returns the nominal 45 nm device used throughout the
// reproduction.
func Default() Params {
	return Params{
		Diameter: 40e-9,
		TOxide:   1.1e-9,
		RA:       5e-12, // 5 Ω·µm²
		TMR:      1.5,
		Jc0:      1.5e10, // ~19 µA on a 40 nm dot (low-Jc perpendicular MTJ)
		Delta:    60,
		Tau0:     1e-9,
		TempK:    300,
	}
}

// Area returns the junction area [m²].
func (p Params) Area() float64 {
	r := p.Diameter / 2
	return math.Pi * r * r
}

// Resistance returns the junction resistance in the given state [Ω].
func (p Params) Resistance(s State) float64 {
	rp := p.RA / p.Area()
	if s == AntiParallel {
		return rp * (1 + p.TMR)
	}
	return rp
}

// CriticalCurrent returns the zero-temperature critical switching
// current Ic0 [A].
func (p Params) CriticalCurrent() float64 { return p.Jc0 * p.Area() }

// SwitchingDelay returns the mean time to switch the free layer under
// a constant write current [s]. Above the critical current the device
// switches in the precessional regime (delay inversely proportional to
// the overdrive, Sun model); below it switching is thermally activated
// and exponentially slow.
func (p Params) SwitchingDelay(current float64) float64 {
	ic := p.CriticalCurrent()
	if current <= 0 {
		return math.Inf(1)
	}
	over := current / ic
	if over > 1 {
		// Precessional: τ = τ_D / (I/Ic - 1), τ_D ≈ 1 ns at 2×Ic.
		const tauD = 1e-9
		return tauD / (over - 1)
	}
	// Thermal activation: τ = τ0 · exp(Δ·(1 - I/Ic)).
	return p.Tau0 * math.Exp(p.Delta*(1-over))
}

// Variation is the paper's Monte-Carlo process-variation recipe for
// the MTJ: 1 % (σ) on the device dimensions. (The 10 % V_th and 1 %
// W/L variations apply to the CMOS periphery and live in
// internal/lutsim.)
type Variation struct {
	DimSigma float64 // relative σ on diameter and oxide thickness
	TMRSigma float64 // relative σ on TMR (barrier quality)
}

// DefaultVariation matches §IV-D: 1 % on MTJ dimensions.
func DefaultVariation() Variation {
	return Variation{DimSigma: 0.01, TMRSigma: 0.01}
}

// Sample draws one process-variation instance of the device.
func (p Params) Sample(v Variation, rng *rand.Rand) Params {
	q := p
	q.Diameter *= 1 + v.DimSigma*rng.NormFloat64()
	q.TOxide *= 1 + v.DimSigma*rng.NormFloat64()
	// RA depends exponentially on barrier thickness; with the partial
	// correlation between thickness and barrier-height variation the
	// effective sensitivity is ~6 % RA per 1 % thickness change.
	const kappa = 5.5e9 // 1/m
	q.RA = p.RA * math.Exp(kappa*(q.TOxide-p.TOxide))
	q.TMR *= 1 + v.TMRSigma*rng.NormFloat64()
	if q.TMR < 0 {
		q.TMR = 0
	}
	return q
}

// SampleCell draws a process-variation instance of a complementary
// cell. The two junctions sit adjacent on die, so they share the
// systematic part of the variation and differ only by a small local
// mismatch (3 % of σ each). This correlation is what keeps the
// per-cell read-power asymmetry between logic 0 and logic 1 in the
// sub-percent range (paper Table IV: 12.47 fJ vs 12.50 fJ).
func (p Params) SampleCell(v Variation, rng *rand.Rand) *Cell {
	common := p.Sample(v, rng)
	local := Variation{DimSigma: v.DimSigma * 0.03, TMRSigma: v.TMRSigma * 0.03}
	return NewCell(common.Sample(local, rng), common.Sample(local, rng))
}

// Validate sanity-checks the parameters.
func (p Params) Validate() error {
	switch {
	case p.Diameter <= 0 || p.TOxide <= 0 || p.RA <= 0:
		return fmt.Errorf("mtj: non-positive geometry")
	case p.TMR <= 0:
		return fmt.Errorf("mtj: TMR must be positive")
	case p.Jc0 <= 0 || p.Delta <= 0 || p.Tau0 <= 0:
		return fmt.Errorf("mtj: non-positive switching parameters")
	}
	return nil
}

// Cell is one complementary bit cell of the MRAM LUT: two MTJs written
// to opposite states so the read path is a voltage divider with a wide
// margin regardless of process variation (paper §III-B).
type Cell struct {
	Main Params
	Comp Params
	// Stored is the logical bit: Stored=true puts Main in the P (low
	// resistance) state and Comp in AP, so the divider midpoint
	// V+ — Main — node — Comp — V− sits above vread/2.
	Stored bool
}

// NewCell builds a complementary cell from two device instances.
func NewCell(main, comp Params) *Cell { return &Cell{Main: main, Comp: comp} }

// Write stores a bit (both junctions switch, in a complementary
// fashion).
func (c *Cell) Write(bit bool) { c.Stored = bit }

// DividerVoltage returns the sense-node voltage of the read divider
// V+ — Main — node — Comp — V− for a supply of vread [V].
func (c *Cell) DividerVoltage(vread float64) float64 {
	rm := c.Main.Resistance(stateOf(c.Stored))
	rc := c.Comp.Resistance(stateOf(!c.Stored))
	return vread * rc / (rm + rc)
}

// ReadCurrent returns the divider current [A]. Because the two
// junctions always hold complementary states, the series resistance
// R_P + R_AP is the same whether the cell stores 0 or 1 — this is the
// physical origin of the near-zero read-power variation that mitigates
// power side-channel attacks.
func (c *Cell) ReadCurrent(vread float64) float64 {
	rm := c.Main.Resistance(stateOf(c.Stored))
	rc := c.Comp.Resistance(stateOf(!c.Stored))
	return vread / (rm + rc)
}

// ReadBit senses the stored bit by comparing the divider voltage to
// vread/2 and reports whether the sensed value matches. The margin is
// also returned so Monte-Carlo harnesses can count near-failures.
func (c *Cell) ReadBit(vread float64) (bit bool, margin float64) {
	v := c.DividerVoltage(vread)
	return v > vread/2, math.Abs(v - vread/2)
}

func stateOf(bit bool) State {
	if bit {
		return Parallel
	}
	return AntiParallel
}
