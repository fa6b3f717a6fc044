// Package lutsim simulates the paper's 2-input MRAM-based LUT (Fig. 4)
// at the circuit level: four complementary STT-MTJ bit cells plus the
// scan-enable cell, a pass-transistor select tree, a voltage-divider
// read path and a current-limited write driver. It produces the
// transient waveforms of Fig. 5, the Monte-Carlo distributions of
// Fig. 6 and the energy numbers of Table IV, and provides an SRAM-LUT
// reference model for the overhead and side-channel comparisons.
//
// The electrical model is behavioural: resistances, currents and
// energies are computed from the device models in internal/mtj and a
// square-law MOS on-resistance, calibrated to land in the published
// order of magnitude (read ≈ 12 fJ, write ≈ 35 fJ, standby ≈ tens of
// aJ). The *shape* — standby ≪ read < write, and logic-0/logic-1 read
// energies equal to within a fraction of a percent — is what the
// reproduction asserts.
package lutsim

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/logic"
	"repro/internal/mtj"
)

// MOSParams is the square-law transistor model used for the periphery.
type MOSParams struct {
	Vth  float64 // threshold voltage [V]
	WL   float64 // W/L ratio
	RonK float64 // on-resistance constant [Ω·V]: Ron = RonK/(WL·(Vdd−Vth))
	IOff float64 // subthreshold leakage per off path [A]
}

// DefaultMOS returns the nominal 45 nm periphery.
func DefaultMOS() MOSParams {
	return MOSParams{Vth: 0.4, WL: 3.0, RonK: 1800, IOff: 15e-9}
}

// Ron returns the on-resistance at the given supply [Ω].
func (m MOSParams) Ron(vdd float64) float64 {
	ov := vdd - m.Vth
	if ov <= 0.05 {
		ov = 0.05
	}
	return m.RonK / (m.WL * ov)
}

// MOSVariation is the paper's periphery Monte-Carlo recipe (§IV-D):
// 10 % σ on V_th, 1 % σ on transistor dimensions.
type MOSVariation struct {
	VthSigma float64
	WLSigma  float64
}

// DefaultMOSVariation matches the paper.
func DefaultMOSVariation() MOSVariation {
	return MOSVariation{VthSigma: 0.10, WLSigma: 0.01}
}

// Sample draws a process-variation instance of the periphery.
func (m MOSParams) Sample(v MOSVariation, rng *rand.Rand) MOSParams {
	s := m
	s.Vth *= 1 + v.VthSigma*rng.NormFloat64()
	s.WL *= 1 + v.WLSigma*rng.NormFloat64()
	s.IOff *= math.Exp(0.5 * rng.NormFloat64() * v.VthSigma * 10) // leakage is exponential in Vth
	return s
}

// Config is the LUT's electrical operating point.
type Config struct {
	Vdd         float64 // logic supply [V]
	Vread       float64 // read-path supply V+ − V− [V]
	Vwrite      float64 // write driver compliance [V]
	ReadPulse   float64 // sense duration [s]
	WritePulse  float64 // maximum write pulse [s]
	ClockPeriod float64 // standby accounting window [s]
	MOS         MOSParams
	Device      mtj.Params
}

// DefaultConfig returns the calibrated operating point.
func DefaultConfig() Config {
	return Config{
		Vdd:         1.0,
		Vread:       0.8,
		Vwrite:      0.35,
		ReadPulse:   0.27e-9,
		WritePulse:  5e-9,
		ClockPeriod: 2.5e-9,
		MOS:         DefaultMOS(),
		Device:      mtj.Default(),
	}
}

// LUT is one 2-input MRAM LUT instance (possibly process-varied).
type LUT struct {
	Cfg    Config
	Cells  [4]*mtj.Cell // truth-table cells, indexed by 2A+B
	SECell *mtj.Cell    // hidden scan-enable cell
	mos    MOSParams    // this instance's periphery
	// senseOffset models comparator input offset caused by Vth
	// mismatch; a read fails when the divider margin is below it.
	senseOffset float64
}

// New builds a nominal (variation-free) LUT.
func New(cfg Config) *LUT {
	l := &LUT{Cfg: cfg, mos: cfg.MOS, senseOffset: 0.01}
	for i := range l.Cells {
		l.Cells[i] = mtj.NewCell(cfg.Device, cfg.Device)
	}
	l.SECell = mtj.NewCell(cfg.Device, cfg.Device)
	return l
}

// Sample builds a process-variation instance using the paper's recipe.
func Sample(cfg Config, dv mtj.Variation, mv MOSVariation, rng *rand.Rand) *LUT {
	l := &LUT{Cfg: cfg, mos: cfg.MOS.Sample(mv, rng)}
	for i := range l.Cells {
		l.Cells[i] = cfg.Device.SampleCell(dv, rng)
	}
	l.SECell = cfg.Device.SampleCell(dv, rng)
	// Comparator offset from Vth mismatch: σ ≈ 10 mV.
	l.senseOffset = math.Abs(0.01 * rng.NormFloat64() * (1 + 10*mv.VthSigma*rng.NormFloat64()))
	if l.senseOffset < 1e-4 {
		l.senseOffset = 1e-4
	}
	return l
}

// WriteReport describes one bit-cell write.
type WriteReport struct {
	Energy  float64 // [J]
	Delay   float64 // switching time of the slower junction [s]
	Current float64 // write current through the P-state junction [A]
	Error   bool    // switching did not complete within the pulse
}

// writeCell performs one complementary write.
func (l *LUT) writeCell(cell *mtj.Cell, bit bool) WriteReport {
	cfg := l.Cfg
	ron := l.mos.Ron(cfg.Vdd) // access + driver path
	path := 2 * ron

	// The two junctions switch in opposite directions. Current depends
	// on each junction's instantaneous state; use the pre-switch state
	// (worst case for delay, dominant for energy).
	rP := cell.Main.Resistance(mtj.Parallel)
	rAP := cell.Comp.Resistance(mtj.AntiParallel)
	iFromP := cfg.Vwrite / (rP + path)   // junction starting in P
	iFromAP := cfg.Vwrite / (rAP + path) // junction starting in AP

	dP := cell.Main.SwitchingDelay(iFromP)
	dAP := cell.Comp.SwitchingDelay(iFromAP)
	delay := math.Max(dP, dAP)

	// Self-terminating driver: each junction draws current until it
	// switches (plus a 20 % guard band), bounded by the pulse width.
	tP := math.Min(dP*1.2, cfg.WritePulse)
	tAP := math.Min(dAP*1.2, cfg.WritePulse)
	energy := cfg.Vwrite * (iFromP*tP + iFromAP*tAP)

	rep := WriteReport{
		Energy:  energy,
		Delay:   delay,
		Current: iFromP,
		Error:   delay > cfg.WritePulse,
	}
	if !rep.Error {
		cell.Write(bit)
	}
	return rep
}

// Configure programs the four truth-table cells for the function,
// shifting key bits in through BL in the paper's AB = 11,10,01,00
// order. It returns the per-cell reports (in that shift order).
func (l *LUT) Configure(f logic.Func2) [4]WriteReport {
	keys := f.Keys() // K1..K4 = f(1,1), f(1,0), f(0,1), f(0,0)
	order := [4]int{3, 2, 1, 0}
	var reps [4]WriteReport
	for i, cellIdx := range order {
		reps[i] = l.writeCell(l.Cells[cellIdx], keys[i])
	}
	return reps
}

// SetSE programs the hidden scan-enable cell.
func (l *LUT) SetSE(bit bool) WriteReport { return l.writeCell(l.SECell, bit) }

// ReadReport describes one read operation.
type ReadReport struct {
	Out     bool    // value at OUT (after scan-enable muxing)
	Raw     bool    // LUT cell value before the SE mux
	Energy  float64 // [J]
	Power   float64 // average read power [W]
	Current float64 // divider current [A]
	Margin  float64 // sense margin at the comparator [V]
	Error   bool    // sensed value differed from the stored bit
}

// Read evaluates the LUT for inputs (a, b) with the scan-enable signal
// se. When se is asserted and the SE cell stores 1, OUT carries the
// complemented value (paper §III-C).
func (l *LUT) Read(a, b, se bool) ReadReport {
	idx := 0
	if a {
		idx += 2
	}
	if b {
		idx++
	}
	cell := l.Cells[idx]
	stored := cell.Stored
	sensed, margin := cell.ReadBit(l.Cfg.Vread)
	errRead := margin < l.senseOffset
	if errRead {
		sensed = !stored // pessimistic: an offset-dominated sense flips
	}

	current := cell.ReadCurrent(l.Cfg.Vread)
	power := l.Cfg.Vread * current
	energy := power * l.Cfg.ReadPulse

	out := sensed
	if se {
		// SE path also senses the SE cell (adds its divider energy).
		seBit, seMargin := l.SECell.ReadBit(l.Cfg.Vread)
		if seMargin < l.senseOffset {
			seBit = !l.SECell.Stored
		}
		seCur := l.SECell.ReadCurrent(l.Cfg.Vread)
		energy += l.Cfg.Vread * seCur * l.Cfg.ReadPulse
		power += l.Cfg.Vread * seCur
		if seBit {
			out = !out
		}
	}
	return ReadReport{
		Out:     out,
		Raw:     sensed,
		Energy:  energy,
		Power:   power,
		Current: current,
		Margin:  margin,
		Error:   errRead,
	}
}

// StandbyEnergy returns the leakage energy over one clock period with
// the read and write paths disabled. Non-volatility means only
// subthreshold leakage of the periphery remains — the attojoule figure
// of Table IV.
func (l *LUT) StandbyEnergy() float64 {
	return l.Cfg.Vdd * l.mos.IOff * l.Cfg.ClockPeriod
}

// EnergyRow is one row of the Table IV reproduction.
type EnergyRow struct {
	Label   string
	Read    float64 // [J]
	Write   float64 // [J]
	Standby float64 // [J]
}

// EnergyTableFrom measures read/write/standby energies for logic "0",
// logic "1" and their average on the given LUT instance configured as
// the given function: Table IV. A nominal LUT (New) gives exactly
// equal logic-0/logic-1 energies; one drawn by Sample shows the
// sub-percent mismatch-driven asymmetry the paper reports (12.47 vs
// 12.50 fJ).
func EnergyTableFrom(l *LUT, f logic.Func2) ([3]EnergyRow, error) {
	reps := l.Configure(f)
	for _, r := range reps {
		if r.Error {
			return [3]EnergyRow{}, fmt.Errorf("lutsim: configuration write failed")
		}
	}
	var sumR, sumW [2]float64
	var cntR, cntW [2]float64
	// Read and write energy per stored value, cell by cell: storing 0
	// and 1 in the *same* cell isolates the secret-dependent power
	// component (cell-to-cell variation is input-dependent and public).
	for idx := 0; idx < 4; idx++ {
		a, b := idx>>1 == 1, idx&1 == 1
		saved := l.Cells[idx].Stored
		for v := 0; v < 2; v++ {
			wrep := l.writeCell(l.Cells[idx], v == 1)
			sumW[v] += wrep.Energy
			cntW[v]++
			rrep := l.Read(a, b, false)
			sumR[v] += rrep.Energy
			cntR[v]++
		}
		l.Cells[idx].Write(saved)
	}
	standby := l.StandbyEnergy()
	row := func(label string, v int) EnergyRow {
		r := EnergyRow{Label: label, Standby: standby}
		if cntR[v] > 0 {
			r.Read = sumR[v] / cntR[v]
		}
		if cntW[v] > 0 {
			r.Write = sumW[v] / cntW[v]
		}
		return r
	}
	r0 := row(`Logic "0"`, 0)
	r1 := row(`Logic "1"`, 1)
	avg := EnergyRow{
		Label:   "Average",
		Read:    (r0.Read + r1.Read) / 2,
		Write:   (r0.Write + r1.Write) / 2,
		Standby: standby,
	}
	return [3]EnergyRow{r0, r1, avg}, nil
}
