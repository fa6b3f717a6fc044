package netlint

import (
	"repro/internal/netlist"
	"repro/internal/opt"
)

// KeyConstProp sweeps each key bit, and pairs of key bits with
// reconverging fanout, through the simulator and the optimizer's
// constant folder — the oracle-less attack surface SCOPE and the
// LUT-Lock evaluation exploit:
//
//   - a bit whose 0- and 1-cofactors are functionally equivalent is
//     output-irrelevant, so the attacker strikes it from the key space
//     (Error, pruned as "discarded");
//   - a bit whose cofactors fold asymmetrically — one binding drives
//     primary outputs to constants — leaks its likely value, because
//     real circuits do not have constant outputs (Warn);
//   - a pair whose outputs are invariant under jointly flipping both
//     bits is parity-linked: only the XOR of the two reaches the
//     outputs, so the pair contributes one effective bit (Error,
//     linked as a parity group).
//
// Cofactor equivalence is exhaustive up to Options.AuditExhaustive
// remaining inputs and falls back to random 64-pattern rounds above
// that. Only exhaustive equivalences prune or link; a sampled
// "equivalent" verdict is inconclusive, so it warns instead and marks
// the resilience report conservative.
var KeyConstProp = &Analyzer{
	Name: "key-const-prop",
	Doc:  "sweep key-bit cofactors through constant folding; flag forced or output-irrelevant bits and parity-linked pairs",
	Run:  runKeyConstProp,
}

func runKeyConstProp(p *Pass) error {
	if !p.auditReady() {
		return nil
	}
	keys := p.KeyInputs()
	if len(keys) == 0 {
		return nil
	}
	p.resilience()
	nl := p.Netlist
	pos := p.inputPositions()

	bind := func(ids []int, vals []bool) *netlist.Netlist {
		positions := make([]int, len(ids))
		for i, id := range ids {
			positions[i] = pos[id]
		}
		c, err := nl.BindInputs(positions, vals)
		if err != nil {
			// Lax netlists the binder rejects are hygiene territory.
			return nil
		}
		return c
	}

	irrelevant := map[int]bool{}
	for _, ki := range keys {
		name := nl.Gates[ki].Name
		c0 := bind([]int{ki}, []bool{false})
		c1 := bind([]int{ki}, []bool{true})
		if c0 == nil || c1 == nil {
			continue
		}
		eq, proof, err := p.auditEquiv(c0, c1)
		if err != nil {
			continue
		}
		if eq {
			// A sampled "equivalent" verdict is inconclusive — a rare
			// pattern could still distinguish the cofactors — so it
			// warns without pruning: the effective key length only ever
			// counts provable weaknesses (the invariant the oracle
			// cross-validation in internal/attack enforces).
			if proof == ProofSampled {
				p.auditSampled = true
				p.Report(Warn, ki,
					"key input %q appears output-irrelevant on every sampled pattern (%s proof) — not counted against the effective key length; raise AuditExhaustive for a definitive verdict",
					name, proof)
				continue
			}
			irrelevant[ki] = true
			p.Report(Error, ki,
				"key input %q is output-irrelevant: its 0- and 1-cofactors are equivalent (%s proof) — an oracle-less attacker discards the bit",
				name, proof)
			p.pruneKey(name, ClassDiscarded, "0- and 1-cofactors are functionally equivalent", proof)
			continue
		}
		o0 := constOutputs(c0)
		o1 := constOutputs(c1)
		if o0 != o1 {
			likely := 0
			if o0 > o1 {
				likely = 1
			}
			p.Report(Warn, ki,
				"constant propagation leaks key input %q: the %s=0 cofactor folds %d primary output(s) to constants, the %s=1 cofactor %d — a SCOPE-style attacker guesses %s=%d",
				name, name, o0, name, o1, name, likely)
		}
	}

	// Pair sweep. Only pairs whose fanout cones reconverge can be
	// parity-linked: with disjoint cones, a relevant bit already
	// changes some output with the partner held fixed, which breaks
	// joint-flip invariance.
	var relevant []int
	for _, ki := range keys {
		if !irrelevant[ki] {
			relevant = append(relevant, ki)
		}
	}
	if len(relevant) < 2 {
		return nil
	}
	cones := make(map[int][]bool, len(relevant))
	for _, ki := range relevant {
		cones[ki] = netlist.FanoutCone(p.Fanouts(), ki)
	}
	maxPairs := p.Opts.auditMaxPairs()
	checked := 0
sweep:
	for i := 0; i < len(relevant); i++ {
		for j := i + 1; j < len(relevant); j++ {
			ki, kj := relevant[i], relevant[j]
			if !conesMeet(cones[ki], cones[kj]) {
				continue
			}
			if checked >= maxPairs {
				p.auditCapped = true
				p.Report(Info, -1,
					"key-bit pair sweep capped at %d pairs; the effective-key-length accounting is conservative (raise AuditMaxPairs for an exact report)",
					maxPairs)
				break sweep
			}
			checked++
			c00 := bind([]int{ki, kj}, []bool{false, false})
			c11 := bind([]int{ki, kj}, []bool{true, true})
			if c00 == nil || c11 == nil {
				continue
			}
			eq, proofA, err := p.auditEquiv(c00, c11)
			if err != nil || !eq {
				continue
			}
			c01 := bind([]int{ki, kj}, []bool{false, true})
			c10 := bind([]int{ki, kj}, []bool{true, false})
			if c01 == nil || c10 == nil {
				continue
			}
			eq, proofB, err := p.auditEquiv(c01, c10)
			if err != nil || !eq {
				continue
			}
			proof := weakerProof(proofA, proofB)
			ni, nj := nl.Gates[ki].Name, nl.Gates[kj].Name
			if proof == ProofSampled {
				p.auditSampled = true
				p.Report(Warn, ki,
					"key inputs %q and %q appear parity-linked on every sampled pattern (%s proof) — not counted against the effective key length; raise AuditExhaustive for a definitive verdict",
					ni, nj, proof)
				continue
			}
			p.Report(Error, ki,
				"key inputs %q and %q are parity-linked: the outputs depend only on their XOR (%s proof) — the pair contributes one effective bit",
				ni, nj, proof)
			p.linkKeys([]string{ni, nj}, LinkParity, "joint cofactor sweep", proof)
		}
	}
	return nil
}

// constOutputs runs the constant folder over the cofactor and counts
// distinct primary-output gates reduced to constants. The cofactor is
// consumed (Optimize rewrites in place). Netlists the optimizer
// rejects (lax-parsed leftovers) count as zero.
func constOutputs(c *netlist.Netlist) int {
	if _, err := opt.Optimize(c); err != nil {
		return 0
	}
	n := 0
	seen := map[int]bool{}
	for _, o := range c.Outputs {
		if seen[o] {
			continue
		}
		seen[o] = true
		if t := c.Gates[o].Type; t == netlist.Const0 || t == netlist.Const1 {
			n++
		}
	}
	return n
}

// conesMeet reports whether two fanout cones share a gate.
func conesMeet(a, b []bool) bool {
	for id := range a {
		if a[id] && b[id] {
			return true
		}
	}
	return false
}
