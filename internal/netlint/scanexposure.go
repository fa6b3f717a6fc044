package netlint

import "repro/internal/netlist"

// ScanExposure reports key material observable through the scan
// infrastructure declared in Options.Scan — the leakage channel
// ScanSAT models away even for "obfuscated" chains:
//
//   - a key input listed as a cell of a functional (non-key) chain
//     shifts out directly in test mode: zero secrecy (Error, pruned
//     as "recovered" — the attacker reads the bit, it still matters
//     functionally);
//   - a key input whose fanout drives a cell of a functional chain is
//     indirectly observable: scan-mode responses give the attacker
//     per-cell oracle access to the key-dependent logic, the exact
//     leverage ScanSAT builds its model from (Warn).
//
// Cells on the paper's secure configuration chain (KeyChain) are out
// of scope here — scan-out from that chain is architecturally blocked
// and its structural integrity is scan-integrity's job. Without a
// ScanSpec the analyzer is silent.
var ScanExposure = &Analyzer{
	Name: "scan-exposure",
	Doc:  "report key bits directly on, or observable through, functional scan chains",
	Run:  runScanExposure,
}

func runScanExposure(p *Pass) error {
	if p.Opts.Scan == nil {
		return nil
	}
	keys := p.KeyInputs()
	if len(keys) == 0 {
		return nil
	}
	nl := p.Netlist
	type cellRef struct {
		id          int
		cell, chain string
	}
	var observable []cellRef
	for _, chain := range p.Opts.Scan.Chains {
		if chain.KeyChain {
			continue
		}
		for _, cell := range chain.Cells {
			id, ok := nl.GateID(cell)
			if !ok {
				continue // dangling cell name: scan-integrity's finding
			}
			if p.IsKeyInput(id) {
				name := nl.Gates[id].Name
				p.Report(Error, id,
					"key input %q sits on functional scan chain %q: its value shifts out directly in test mode — zero secrecy",
					name, chain.Name)
				p.pruneKey(name, ClassRecovered,
					"shifts out directly on functional scan chain "+chain.Name, ProofStructural)
				continue
			}
			observable = append(observable, cellRef{id, cell, chain.Name})
		}
	}
	if len(observable) == 0 || !p.auditReady() {
		return nil
	}
	for _, ki := range keys {
		cone := netlist.FanoutCone(p.Fanouts(), ki)
		for _, c := range observable {
			if cone[c.id] {
				p.Report(Warn, ki,
					"key input %q drives scan cell %q on functional chain %q: scan-mode responses expose it to ScanSAT-style modeling",
					nl.Gates[ki].Name, c.cell, c.chain)
				break
			}
		}
	}
	return nil
}
