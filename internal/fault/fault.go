// Package fault provides single stuck-at fault simulation and
// random-pattern test coverage — the DFT substrate behind the paper's
// §III-C claim that scan-enable obfuscation "will not cause any errors
// during the test phase": the IP owner, knowing the MTJ_SE contents,
// de-corrupts the scan responses and retains full fault coverage,
// while an attacker reading raw scan data sees corrupted signatures.
package fault

import (
	"fmt"
	"math/rand"

	"repro/internal/netlist"
)

// Fault is a single stuck-at fault on a gate output.
type Fault struct {
	Gate  int  // gate ID whose output is faulty
	Stuck bool // stuck-at value
}

// String renders e.g. "g12/SA0".
func (f Fault) String() string {
	v := 0
	if f.Stuck {
		v = 1
	}
	return fmt.Sprintf("%d/SA%d", f.Gate, v)
}

// Enumerate lists the collapsed single stuck-at faults: two per gate
// output (inputs included — a stuck primary input is a real defect).
func Enumerate(nl *netlist.Netlist) []Fault {
	faults := make([]Fault, 0, 2*nl.NumGates())
	for id := range nl.Gates {
		switch nl.Gates[id].Type {
		case netlist.Const0, netlist.Const1:
			continue // stuck constants are redundant by construction
		}
		faults = append(faults, Fault{Gate: id, Stuck: false}, Fault{Gate: id, Stuck: true})
	}
	return faults
}

// Simulator performs bit-parallel fault simulation: 64 patterns per
// word, full re-simulation per fault with the faulty node forced, on
// the netlist's one compiled simulation program.
type Simulator struct {
	sim     *netlist.Simulator
	good    []uint64 // every gate's good-machine word of the current batch
	goodOut []uint64
}

// NewSimulator prepares fault simulation for the netlist.
func NewSimulator(nl *netlist.Netlist) (*Simulator, error) {
	sim, err := netlist.NewSimulator(nl)
	if err != nil {
		return nil, err
	}
	return &Simulator{
		sim:     sim,
		good:    make([]uint64, nl.NumGates()),
		goodOut: make([]uint64, len(nl.Outputs)),
	}, nil
}

// DetectBatch simulates 64 patterns and reports which of the given
// faults are detected (some output differs from the good machine on at
// least one pattern). validMask limits which pattern bits count.
func (s *Simulator) DetectBatch(in []uint64, validMask uint64, faults []Fault, detected []bool) {
	copy(s.goodOut, s.sim.Run(in))
	for id := range s.good {
		s.good[id] = s.sim.Value(id)
	}
	for fi, f := range faults {
		if detected[fi] {
			continue
		}
		var forced uint64
		if f.Stuck {
			forced = ^uint64(0)
		}
		// Cheap screen: the fault site's good value must differ from
		// the forced value on some valid pattern, or nothing activates.
		if (s.good[f.Gate]^forced)&validMask == 0 {
			continue
		}
		badOut := s.sim.RunForced(in, f.Gate, forced)
		for i := range s.goodOut {
			if (s.goodOut[i]^badOut[i])&validMask != 0 {
				detected[fi] = true
				break
			}
		}
	}
}

// CoverageResult summarizes a fault-simulation campaign.
type CoverageResult struct {
	Total    int
	Detected int
	Patterns int
}

// Coverage returns the fraction of faults detected.
func (r CoverageResult) Coverage() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Detected) / float64(r.Total)
}

func (r CoverageResult) String() string {
	return fmt.Sprintf("%d/%d faults (%.1f%%) detected with %d patterns",
		r.Detected, r.Total, r.Coverage()*100, r.Patterns)
}

// RandomPatternCoverage measures single stuck-at coverage under
// nPatterns random test patterns.
func RandomPatternCoverage(nl *netlist.Netlist, nPatterns int, seed int64) (CoverageResult, error) {
	sim, err := NewSimulator(nl)
	if err != nil {
		return CoverageResult{}, err
	}
	faults := Enumerate(nl)
	detected := make([]bool, len(faults))
	rng := rand.New(rand.NewSource(seed))
	in := make([]uint64, len(nl.Inputs))
	done := 0
	for done < nPatterns {
		batch := nPatterns - done
		if batch > 64 {
			batch = 64
		}
		var mask uint64 = ^uint64(0)
		if batch < 64 {
			mask = 1<<uint(batch) - 1
		}
		for i := range in {
			in[i] = rng.Uint64()
		}
		sim.DetectBatch(in, mask, faults, detected)
		done += batch
	}
	res := CoverageResult{Total: len(faults), Patterns: nPatterns}
	for _, d := range detected {
		if d {
			res.Detected++
		}
	}
	return res, nil
}
