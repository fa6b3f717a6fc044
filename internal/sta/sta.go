// Package sta provides static timing analysis and area/power proxies
// for gate-level netlists: critical-path delay under a per-gate-type
// delay model, transistor-count area estimation, and a switching-
// activity power proxy. The overhead analysis of locked vs original
// circuits (the PPA side of the paper's §IV-E) is built on it.
package sta

import (
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/netlist"
)

// DelayModel returns the propagation delay of a gate (arbitrary units,
// roughly FO4-normalized).
type DelayModel func(t netlist.GateType, fanin int) float64

// TechDelay approximates a standard-cell library: inverting stages are
// fast, XOR and MUX cost more, and wide gates pay a fanin penalty.
func TechDelay(t netlist.GateType, fanin int) float64 {
	var base float64
	switch t {
	case netlist.Input, netlist.Const0, netlist.Const1:
		return 0
	case netlist.Not:
		base = 0.6
	case netlist.Buf:
		base = 0.8
	case netlist.Nand, netlist.Nor:
		base = 1.0
	case netlist.And, netlist.Or:
		base = 1.4 // NAND/NOR + inverter
	case netlist.Xor, netlist.Xnor:
		base = 1.8
	case netlist.Mux:
		base = 1.6
	default:
		base = 1.0
	}
	if fanin > 2 {
		base += 0.35 * float64(fanin-2)
	}
	return base
}

// transistors estimates the MOS transistor count of a gate.
func transistors(t netlist.GateType, fanin int) int {
	switch t {
	case netlist.Input, netlist.Const0, netlist.Const1:
		return 0
	case netlist.Not:
		return 2
	case netlist.Buf:
		return 4
	case netlist.Nand, netlist.Nor:
		return 2 * fanin
	case netlist.And, netlist.Or:
		return 2*fanin + 2
	case netlist.Xor, netlist.Xnor:
		return 4 * fanin
	case netlist.Mux:
		return 6 // transmission-gate mux + select inverter
	}
	return 4
}

// Result is a timing report.
type Result struct {
	Delay        float64   // critical-path delay
	Arrival      []float64 // per gate
	CriticalPath []int     // gate IDs from a primary input to the latest output
}

// Analyze computes arrival times and the critical path.
func Analyze(nl *netlist.Netlist, model DelayModel) (*Result, error) {
	order, err := nl.TopoOrder()
	if err != nil {
		return nil, err
	}
	arr := make([]float64, nl.NumGates())
	pred := make([]int, nl.NumGates())
	for i := range pred {
		pred[i] = -1
	}
	for _, id := range order {
		g := &nl.Gates[id]
		worst := 0.0
		for _, f := range g.Fanin {
			if arr[f] > worst {
				worst = arr[f]
				pred[id] = f
			}
		}
		if len(g.Fanin) > 0 && pred[id] < 0 {
			pred[id] = g.Fanin[0]
		}
		arr[id] = worst + model(g.Type, len(g.Fanin))
	}
	res := &Result{Arrival: arr}
	endpoint := -1
	for _, id := range nl.Outputs {
		if arr[id] > res.Delay || endpoint < 0 {
			res.Delay = arr[id]
			endpoint = id
		}
	}
	for id := endpoint; id >= 0; id = pred[id] {
		res.CriticalPath = append(res.CriticalPath, id)
	}
	// Reverse into input→output order.
	for i, j := 0, len(res.CriticalPath)-1; i < j; i, j = i+1, j-1 {
		res.CriticalPath[i], res.CriticalPath[j] = res.CriticalPath[j], res.CriticalPath[i]
	}
	return res, nil
}

// Area estimates the transistor count of the netlist.
func Area(nl *netlist.Netlist) int {
	total := 0
	for id := range nl.Gates {
		g := &nl.Gates[id]
		total += transistors(g.Type, len(g.Fanin))
	}
	return total
}

// SwitchingActivity estimates the average toggle probability per gate
// over random consecutive input pairs — a dynamic-power proxy: power ∝
// Σ activity(g)·cap(g), with capacitance taken as the transistor count.
func SwitchingActivity(nl *netlist.Netlist, rounds int, seed int64) (perGate []float64, powerProxy float64, err error) {
	sim, err := netlist.NewSimulator(nl)
	if err != nil {
		return nil, 0, err
	}
	rng := rand.New(rand.NewSource(seed))
	toggles := make([]float64, nl.NumGates())
	in := make([]uint64, len(nl.Inputs))
	prev := make([]uint64, nl.NumGates())
	samples := 0
	for r := 0; r < rounds; r++ {
		for i := range in {
			in[i] = rng.Uint64()
		}
		sim.Run(in)
		if r > 0 {
			for id := range toggles {
				cur := sim.Value(id)
				toggles[id] += float64(bits.OnesCount64(cur ^ prev[id]))
			}
			samples += 64
		}
		for id := range prev {
			prev[id] = sim.Value(id)
		}
	}
	if samples == 0 {
		return nil, 0, fmt.Errorf("sta: need rounds >= 2")
	}
	perGate = make([]float64, nl.NumGates())
	for id := range perGate {
		perGate[id] = toggles[id] / float64(samples)
		g := &nl.Gates[id]
		powerProxy += perGate[id] * float64(transistors(g.Type, len(g.Fanin)))
	}
	return perGate, powerProxy, nil
}

// PPA bundles the three metrics.
type PPA struct {
	Delay      float64
	Area       int
	PowerProxy float64
	Gates      int
}

// Measure computes the PPA triple with the technology delay model.
func Measure(nl *netlist.Netlist, seed int64) (PPA, error) {
	timing, err := Analyze(nl, TechDelay)
	if err != nil {
		return PPA{}, err
	}
	_, power, err := SwitchingActivity(nl, 16, seed)
	if err != nil {
		return PPA{}, err
	}
	return PPA{
		Delay:      timing.Delay,
		Area:       Area(nl),
		PowerProxy: power,
		Gates:      nl.NumLogicGates(),
	}, nil
}

// Overhead returns (locked - original)/original per metric, as
// fractions.
func Overhead(orig, locked PPA) (delay, area, power float64) {
	rel := func(a, b float64) float64 {
		if a == 0 {
			return 0
		}
		return (b - a) / a
	}
	return rel(orig.Delay, locked.Delay),
		rel(float64(orig.Area), float64(locked.Area)),
		rel(orig.PowerProxy, locked.PowerProxy)
}
