package report

import (
	"fmt"
	"sync"

	"repro/internal/cache"
	"repro/internal/circuit"
	"repro/internal/netlist"
)

// benchCircuit is one benchmark circuit and its canonical digest
// (cache.NetlistSum), which every cell key on the circuit mixes in.
type benchCircuit struct {
	nl  *netlist.Netlist
	sum cache.Digest
}

// benchKey names one build of a benchmark circuit: an ISCAS/ITC
// profile at a scale, the hand-built c17, or the whole CEP suite of a
// class ("small" or "full").
type benchKey struct {
	name  string  // profile name or "c17"; "" for the CEP suite
	scale float64 // the profile's scale; 0 for c17 and the CEP suite
	class string  // the CEP suite's class
}

// benchKeyOf resolves a circuit name at a table's scale. A CEP core is
// built with the rest of its suite; scales above 0.5 select the
// full-width cores.
func benchKeyOf(name string, scale float64) benchKey {
	if _, ok := circuit.ProfileByName(name); ok {
		return benchKey{name: name, scale: scale}
	}
	switch {
	case name == "c17":
		return benchKey{name: name}
	case scale > 0.5:
		return benchKey{class: "full"}
	default:
		return benchKey{class: "small"}
	}
}

// build synthesizes the key's circuits and digests each, by name.
func (k benchKey) build() (map[string]benchCircuit, error) {
	nets := map[string]*netlist.Netlist{}
	var err error
	switch {
	case k.class != "":
		nets, err = circuit.CEPSuite(k.class)
	case k.name == "c17":
		nets[k.name], err = buildC17()
	default:
		prof, _ := circuit.ProfileByName(k.name)
		nets[k.name], err = prof.Synthesize(k.scale)
	}
	if err != nil {
		return nil, err
	}
	set := make(map[string]benchCircuit, len(nets))
	for name, nl := range nets {
		set[name] = benchCircuit{nl: nl, sum: cache.NetlistSum(nl)}
	}
	return set, nil
}

// circuitMemo builds each benchmark circuit, and its digest, once per
// process: a circuit depends only on its profile and scale (a CEP core
// only on its class), and every table row and every repeated table run
// asks for the same few. Concurrent first requests for one key share
// one build. The netlists it hands out are shared, so they are
// read-only: core.Lock and core.LockLUTM clone their input, and
// sta.Measure and the digest only read it.
type circuitMemo struct {
	build func(benchKey) (map[string]benchCircuit, error)
	built sync.Map // benchKey -> func() (map[string]benchCircuit, error)
}

// benchmarks is the process's one source of benchmark circuits.
var benchmarks = &circuitMemo{build: benchKey.build}

// get returns the shared circuit named name (a profile, c17 or a CEP
// core) at scale, building its key's circuits on first use.
func (m *circuitMemo) get(name string, scale float64) (benchCircuit, error) {
	k := benchKeyOf(name, scale)
	build, ok := m.built.Load(k)
	if !ok {
		build, _ = m.built.LoadOrStore(k, sync.OnceValues(func() (map[string]benchCircuit, error) {
			return m.build(k)
		}))
	}
	set, err := build.(func() (map[string]benchCircuit, error))()
	if err != nil {
		return benchCircuit{}, err
	}
	c, ok := set[name]
	if !ok {
		return benchCircuit{}, fmt.Errorf("report: no benchmark circuit %q", name)
	}
	return c, nil
}
