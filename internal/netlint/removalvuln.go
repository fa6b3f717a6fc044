package netlint

import (
	"encoding/binary"
	"math/rand"

	"repro/internal/netlist"
)

// RemovalVulnerability matches locked (key-dependent) signals against
// the signatures of key-free logic in the same netlist — the
// removal/bypass exposure LUT-Lock-style evaluations measure. The
// whole netlist is simulated with the key inputs left free, so a
// match means the signal computes the same function for every key
// assignment:
//
//   - a key-dependent gate functionally identical (or complementary)
//     to a key-free signal is a removal target: the attacker rewires
//     its fanout to the key-free signal and strips the key logic
//     (Warn on the gate);
//   - every key bit all of whose output paths run through such a
//     removable gate is discarded with it (Error, pruned);
//   - a MUX steered by a key-dependent select between branches of
//     which at least one is key-free is a bypass candidate: hardwiring
//     the key-free branch deletes the select cone (Warn).
//
// Candidate matches come from 64-bit random simulation signatures and
// are confirmed exhaustively below the AuditExhaustive input ceiling,
// or with independent random rounds above it. A sampled confirmation
// still warns (it is a strong removal lead) but never prunes key bits
// — only exhaustively matched cones shrink the effective key length —
// and marks the resilience report conservative.
var RemovalVulnerability = &Analyzer{
	Name: "removal-vulnerability",
	Doc:  "match locked subcircuits against key-free signatures; flag removable cones and bypassable MUXes",
	Run:  runRemovalVuln,
}

func runRemovalVuln(p *Pass) error {
	if !p.auditReady() {
		return nil
	}
	keys := p.KeyInputs()
	if len(keys) == 0 {
		return nil
	}
	nl := p.Netlist
	sim, err := netlist.NewSimulator(nl)
	if err != nil {
		return nil
	}
	p.resilience()
	tainted := netlist.FanoutCone(p.Fanouts(), keys...)
	rounds := p.Opts.auditRounds()
	if rounds < 4 {
		rounds = 4 // below 256 patterns the signature map drowns in collisions
	}
	rng := rand.New(rand.NewSource(p.Opts.auditSeed()))
	sig := make([]uint64, len(nl.Gates)*rounds)
	in := make([]uint64, len(nl.Inputs))
	for r := 0; r < rounds; r++ {
		for i := range in {
			in[i] = rng.Uint64()
		}
		sim.Run(in)
		for id := range nl.Gates {
			sig[id*rounds+r] = sim.Value(id)
		}
	}
	sigKey := func(id int, invert bool) string {
		b := make([]byte, 8*rounds)
		for r := 0; r < rounds; r++ {
			w := sig[id*rounds+r]
			if invert {
				w = ^w
			}
			binary.LittleEndian.PutUint64(b[r*8:], w)
		}
		return string(b)
	}

	order, err := nl.TopoOrder()
	if err != nil {
		return nil
	}
	// Key-free representatives, earliest in topological order so the
	// reported replacement is the cheapest available signal.
	rep := map[string]int{}
	for _, id := range order {
		if tainted[id] {
			continue
		}
		k := sigKey(id, false)
		if _, ok := rep[k]; !ok {
			rep[k] = id
		}
	}

	for _, id := range order {
		if !tainted[id] || nl.Gates[id].Type == netlist.Input {
			continue
		}
		invert := false
		h, ok := rep[sigKey(id, false)]
		if !ok {
			h, ok = rep[sigKey(id, true)]
			invert = true
		}
		if !ok {
			continue
		}
		eq, proof := confirmMatch(p, sim, id, h, invert, rng)
		if !eq {
			continue
		}
		rel := "functionally identical to"
		if invert {
			rel = "the complement of"
		}
		gname, hname := nl.Gates[id].Name, nl.Gates[h].Name
		p.Report(Warn, id,
			"locked signal %q is %s key-free signal %q for every key assignment (%s proof) — a removal attack rewires its fanout and strips the key logic",
			gname, rel, hname, proof)
		// A sampled match is a strong removal lead but not a proof, so
		// the key bits behind it are not pruned — only a conclusively
		// matched cone may shrink the effective key length.
		if proof == ProofSampled {
			p.auditSampled = true
			continue
		}
		cone := nl.TransitiveFanin(id)
		for _, ki := range keys {
			if !cone[ki] || !p.keyReachesOutput(ki) {
				continue
			}
			if !p.keyConfinedTo(ki, id) {
				continue
			}
			kname := nl.Gates[ki].Name
			p.Report(Error, ki,
				"key input %q only guards removable logic: every path to an output runs through %q, which a removal attack replaces with key-free %q",
				kname, gname, hname)
			p.pruneKey(kname, ClassDiscarded,
				"guards only a cone replaceable by key-free logic", proof)
		}
	}

	// Bypassable MUXes: key-steered selection over a key-free branch.
	for _, id := range order {
		g := &nl.Gates[id]
		if g.Type != netlist.Mux || !tainted[id] {
			continue
		}
		sel := g.Fanin[0]
		if !tainted[sel] {
			continue
		}
		for _, br := range g.Fanin[1:] {
			if !tainted[br] {
				p.Report(Warn, id,
					"MUX %q is steered by key-dependent select %q but branch %q is key-free — a bypass attack hardwires that branch and deletes the select cone",
					g.Name, nl.Gates[sel].Name, nl.Gates[br].Name)
			}
		}
	}
	return nil
}

// confirmMatch re-verifies a signature collision between gates a and h
// (h negated when invert is set): exhaustively over every input
// pattern when the input count permits, otherwise with fresh random
// rounds drawn from the audit RNG.
func confirmMatch(p *Pass, sim *netlist.Simulator, a, h int, invert bool, rng *rand.Rand) (bool, string) {
	check := func(in []uint64, valid uint64) bool {
		sim.Run(in)
		va, vh := sim.Value(a), sim.Value(h)
		if invert {
			vh = ^vh
		}
		return (va^vh)&valid == 0
	}
	ni := len(p.Netlist.Inputs)
	if netlist.Exhaustive(ni, p.Opts.auditExhaustive()) {
		if !netlist.AllPatterns(ni, check) {
			return false, ""
		}
		return true, ProofExhaustive
	}
	in := make([]uint64, ni)
	for r := 0; r < p.Opts.auditRounds(); r++ {
		for i := range in {
			in[i] = rng.Uint64()
		}
		if !check(in, ^uint64(0)) {
			return false, ""
		}
	}
	return true, ProofSampled
}
