// Package testutil holds deterministic generators and fault-injection
// helpers shared by the attack, sweep and netlist test suites: random
// benchmark circuits, random keys, the classic XOR/XNOR locking
// baseline, the .bench fuzz seed corpus, and a crash-injecting writer
// for checkpoint/journal durability tests.
package testutil

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/netlint"
	"repro/internal/netlist"
)

// RandomCircuit generates a small random combinational netlist with
// the house profile (deep-narrow, ISCAS-like gate mix), failing the
// test on generator errors. Deterministic in (shape, seed).
func RandomCircuit(tb testing.TB, inputs, outputs, gates int, seed int64) *netlist.Netlist {
	tb.Helper()
	nl, err := netlist.Random(netlist.RandomProfile{
		Name:   fmt.Sprintf("rand-i%d-o%d-g%d-s%d", inputs, outputs, gates, seed),
		Inputs: inputs, Outputs: outputs, Gates: gates, Locality: 0.6,
	}, seed)
	if err != nil {
		tb.Fatalf("testutil: random circuit: %v", err)
	}
	return nl
}

// SmallCircuit is the shape most attack tests use: 12 inputs, 6
// outputs, the given gate count.
func SmallCircuit(tb testing.TB, gates int, seed int64) *netlist.Netlist {
	tb.Helper()
	return RandomCircuit(tb, 12, 6, gates, seed)
}

// RandomKey returns n deterministic pseudo-random key bits.
func RandomKey(n int, seed int64) []bool {
	rng := rand.New(rand.NewSource(seed))
	key := make([]bool, n)
	for i := range key {
		key[i] = rng.Intn(2) == 1
	}
	return key
}

// XORLock applies the classic random XOR/XNOR locking baseline: nKeys
// key-controlled XOR/XNOR gates inserted on random logic wires. It
// returns the locked netlist, the key input positions, and the correct
// key. Deterministic in (circuit, nKeys, seed).
func XORLock(tb testing.TB, orig *netlist.Netlist, nKeys int, seed int64) (*netlist.Netlist, []int, []bool) {
	tb.Helper()
	nl := orig.Clone()
	rng := rand.New(rand.NewSource(seed))
	var keyPos []int
	var key []bool
	// Candidate wires: logic gates (not inputs) to keep things simple.
	var cands []int
	for id := range nl.Gates {
		if nl.Gates[id].Type != netlist.Input {
			cands = append(cands, id)
		}
	}
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	if len(cands) < nKeys {
		tb.Fatalf("testutil: not enough wires to lock")
	}
	for i := 0; i < nKeys; i++ {
		wire := cands[i]
		bit := rng.Intn(2) == 1
		keyPos = append(keyPos, len(nl.Inputs))
		kid := nl.AddInput(fmt.Sprintf("keyinput%d", i))
		var g int
		if bit {
			// XNOR with key=1 is transparent.
			g = nl.AddGate(fmt.Sprintf("klock%d", i), netlist.Xnor, wire, kid)
		} else {
			g = nl.AddGate(fmt.Sprintf("klock%d", i), netlist.Xor, wire, kid)
		}
		nl.RedirectFanout(wire, g)
		key = append(key, bit)
	}
	if err := nl.Validate(); err != nil {
		tb.Fatal(err)
	}
	return nl, keyPos, key
}

// PlantAuditFixture locks orig with seven key bits of which only
// three survive the oracle-less resilience audit: keyinput0 is a
// sound XOR lock; keyinput1 is forced irrelevant through an AND with
// a constant; keyinput2/keyinput3 are series XORs on one wire and
// keyinput4/keyinput5 funnel through a key-only XOR, so each pair
// collapses to its parity; keyinput6 is sound logic but sits as a
// cell on the functional scan chain of the returned ScanSpec. The
// canonical key is all-zero (every mix is a plain XOR). Lock sites
// are the primary outputs followed by the earliest logic gates, so
// the construction is deterministic; orig needs at least five
// distinct sites.
func PlantAuditFixture(tb testing.TB, orig *netlist.Netlist) (*netlist.Netlist, []int, []bool, *netlint.ScanSpec) {
	tb.Helper()
	nl := orig.Clone()
	seen := map[int]bool{}
	var sites []int
	for _, o := range nl.Outputs {
		if !seen[o] {
			seen[o] = true
			sites = append(sites, o)
		}
	}
	for id := 0; id < len(nl.Gates) && len(sites) < 5; id++ {
		if nl.Gates[id].Type != netlist.Input && !seen[id] {
			seen[id] = true
			sites = append(sites, id)
		}
	}
	if len(sites) < 5 {
		tb.Fatalf("testutil: %q has %d lock sites, PlantAuditFixture needs 5", nl.Name, len(sites))
	}
	var keyPos []int
	addKey := func(i int) int {
		keyPos = append(keyPos, len(nl.Inputs))
		return nl.AddInput(fmt.Sprintf("keyinput%d", i))
	}
	mix := func(site, signal int, name string) int {
		g := nl.AddGate(name, netlist.Xor, site, signal)
		nl.RedirectFanout(site, g)
		return g
	}
	k0 := addKey(0)
	mix(sites[0], k0, "auditg0")
	k1 := addKey(1)
	zero := nl.AddGate("auditzero", netlist.Const0)
	dead := nl.AddGate("auditdead1", netlist.And, k1, zero)
	mix(sites[1], dead, "auditg1")
	k2 := addKey(2)
	k3 := addKey(3)
	g2 := mix(sites[2], k2, "auditg2")
	mix(g2, k3, "auditg3")
	k4 := addKey(4)
	k5 := addKey(5)
	funnel := nl.AddGate("auditkk45", netlist.Xor, k4, k5)
	mix(sites[3], funnel, "auditg45")
	k6 := addKey(6)
	mix(sites[4], k6, "auditg6")
	if err := nl.Validate(); err != nil {
		tb.Fatalf("testutil: audit fixture: %v", err)
	}
	scan := &netlint.ScanSpec{Chains: []netlint.ScanChainSpec{{
		Name:  "func0",
		Width: 2,
		Cells: []string{nl.Gates[sites[4]].Name, "keyinput6"},
	}}}
	return nl, keyPos, make([]bool, 7), scan
}

// BenchSeeds returns the shared seed corpus for the .bench parser fuzz
// targets: valid circuits (forward refs, DFFs, MUX/const gates),
// syntax errors, and semantic errors that split strict from lax.
func BenchSeeds() []string {
	return []string{
		"INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n",
		"# fwd ref\nINPUT(a)\nOUTPUT(y)\ny = NOT(t)\nt = BUFF(a)\n",
		"INPUT(d)\nOUTPUT(q)\nq = DFF(d)\n",
		"INPUT(s)\nINPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = MUX(s, a, b)\n",
		"OUTPUT(y)\ny = CONST1()\nz = CONST0()\n",
		"INPUT(a)\nOUTPUT(y)\ny = XOR(a, ghost)\n",         // undriven net: lax-only
		"INPUT(a)\nOUTPUT(y)\ny = AND(a, z)\nz = NOT(y)\n", // cycle: lax-only
		"INPUT(a)\nOUTPUT(y)\n",                            // undefined output: lax-only
		"INPUT(a)\nINPUT(a)\n",                             // duplicate input: both reject
		"y = FROB(a)\n",                                    // unknown op: both reject
		"y = NOT(a, b)\n",                                  // bad arity: both reject
		"bogus line\n",                                     // syntax error: both reject
		"INPUT(a)\nOUTPUT(y)\ny = AND(a a)\n",
		"",
		"# only a comment\n",
	}
}

// ErrInjected is the error a FaultyWriter returns once its byte budget
// is exhausted, standing in for the crash/ENOSPC/kill that interrupted
// the real write.
var ErrInjected = errors.New("testutil: injected write fault")

// FaultyWriter simulates a crash mid-write: it forwards writes to the
// underlying writer until a byte budget is exhausted, tears the
// overflowing write (the in-budget prefix is still written, like a
// real torn page), and fails that and every later write with
// ErrInjected. Sync calls are counted and forwarded when the
// underlying writer supports them, so journal fsync-per-record
// behaviour is observable in tests.
type FaultyWriter struct {
	mu      sync.Mutex
	w       io.Writer
	budget  int // bytes still allowed; <0 = unlimited
	tripped bool
	Syncs   int // number of Sync calls observed
}

// NewFaultyWriter wraps w with a byte budget. A negative budget never
// trips.
func NewFaultyWriter(w io.Writer, budget int) *FaultyWriter {
	return &FaultyWriter{w: w, budget: budget}
}

// Write implements io.Writer with the fault semantics above.
func (f *FaultyWriter) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.tripped {
		return 0, ErrInjected
	}
	if f.budget < 0 || len(p) <= f.budget {
		if f.budget >= 0 {
			f.budget -= len(p)
		}
		return f.w.Write(p)
	}
	// Torn write: the prefix that fit the budget lands, the rest is
	// lost, and the writer is dead from here on.
	n, _ := f.w.Write(p[:f.budget])
	f.budget = 0
	f.tripped = true
	return n, ErrInjected
}

// Sync implements the journal's fsync hook; it forwards to the
// underlying writer when supported and fails after the fault fired.
func (f *FaultyWriter) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.Syncs++
	if f.tripped {
		return ErrInjected
	}
	if s, ok := f.w.(interface{ Sync() error }); ok {
		return s.Sync()
	}
	return nil
}
