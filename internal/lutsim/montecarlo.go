package lutsim

import (
	"math"
	"math/rand"

	"repro/internal/logic"
	"repro/internal/mtj"
)

// Distribution summarizes a sampled quantity.
type Distribution struct {
	N           int
	Mean, Sigma float64
	Min, Max    float64
}

func newDistribution(samples []float64) Distribution {
	d := Distribution{N: len(samples), Min: math.Inf(1), Max: math.Inf(-1)}
	if d.N == 0 {
		d.Min, d.Max = 0, 0
		return d
	}
	sum := 0.0
	for _, s := range samples {
		sum += s
		if s < d.Min {
			d.Min = s
		}
		if s > d.Max {
			d.Max = s
		}
	}
	d.Mean = sum / float64(d.N)
	varsum := 0.0
	for _, s := range samples {
		varsum += (s - d.Mean) * (s - d.Mean)
	}
	d.Sigma = math.Sqrt(varsum / float64(d.N))
	return d
}

// MCResult collects the Fig. 6 Monte-Carlo outputs.
type MCResult struct {
	Instances int
	// Read currents and powers, split by the value being read (Fig. 6a,
	// 6b show the two overlapping distributions).
	ReadCurrent0 Distribution // [A]
	ReadCurrent1 Distribution
	ReadPower0   Distribution // [W]
	ReadPower1   Distribution
	// Device resistance distributions (Fig. 6c).
	RP  Distribution // [Ω]
	RAP Distribution
	// Reliability counters (§IV-D: <0.01 % errors over the error-free
	// instances).
	ReadErrors  int
	WriteErrors int
	ReadOps     int
	WriteOps    int
}

// MonteCarlo runs the paper's §IV-D experiment: `instances` PV samples
// of a 2-input MRAM LUT implementing the function f (the paper uses
// AND), measuring read currents, read powers and MTJ resistances, and
// counting read/write failures.
func MonteCarlo(cfg Config, f logic.Func2, instances int, seed int64) *MCResult {
	rng := rand.New(rand.NewSource(seed))
	dv := mtj.DefaultVariation()
	mv := DefaultMOSVariation()

	res := &MCResult{Instances: instances}
	var i0, i1, p0, p1, rp, rap []float64
	for inst := 0; inst < instances; inst++ {
		l := Sample(cfg, dv, mv, rng)
		for _, rep := range l.Configure(f) {
			res.WriteOps++
			if rep.Error {
				res.WriteErrors++
			}
		}
		for _, c := range l.Cells {
			rp = append(rp, c.Main.Resistance(mtj.Parallel))
			rap = append(rap, c.Main.Resistance(mtj.AntiParallel))
		}
		for idx := 0; idx < 4; idx++ {
			a, b := idx>>1 == 1, idx&1 == 1
			rep := l.Read(a, b, false)
			res.ReadOps++
			if rep.Error {
				res.ReadErrors++
			}
			if f.Eval(a, b) {
				i1 = append(i1, rep.Current)
				p1 = append(p1, rep.Power)
			} else {
				i0 = append(i0, rep.Current)
				p0 = append(p0, rep.Power)
			}
		}
	}
	res.ReadCurrent0 = newDistribution(i0)
	res.ReadCurrent1 = newDistribution(i1)
	res.ReadPower0 = newDistribution(p0)
	res.ReadPower1 = newDistribution(p1)
	res.RP = newDistribution(rp)
	res.RAP = newDistribution(rap)
	return res
}

// PowerOverlap quantifies how indistinguishable the read-0 and read-1
// power distributions are: it returns |µ0−µ1| / max(σ0, σ1). Values
// well below 1 mean the distributions overlap almost completely — the
// paper's P-SCA mitigation claim.
func (r *MCResult) PowerOverlap() float64 {
	s := math.Max(r.ReadPower0.Sigma, r.ReadPower1.Sigma)
	if s == 0 {
		return 0
	}
	return math.Abs(r.ReadPower0.Mean-r.ReadPower1.Mean) / s
}

// MarginSeparation quantifies the read-margin claim: the gap between
// the lowest R_AP and the highest R_P sample, normalized by the mean
// R_P. Positive values mean the distributions never cross (wide read
// margin under PV).
func (r *MCResult) MarginSeparation() float64 {
	if r.RP.N == 0 || r.RAP.N == 0 {
		return 0
	}
	return (r.RAP.Min - r.RP.Max) / r.RP.Mean
}
