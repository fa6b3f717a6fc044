package core

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// buildLUT2 lowers a 2-input LUT to the three-MUX structure of paper
// Fig. 1: the four key inputs are the truth-table cells, selected by B
// then A. keyIDs must hold the gate IDs of the four key inputs in the
// paper's Table II order K1..K4 (K1 = f(1,1), K4 = f(0,0)).
// It returns the LUT output gate ID.
func buildLUT2(nl *netlist.Netlist, prefix string, a, b int, keyIDs [4]int) int {
	// Table II order: K1=f(1,1) K2=f(1,0) K3=f(0,1) K4=f(0,0).
	k11, k10, k01, k00 := keyIDs[0], keyIDs[1], keyIDs[2], keyIDs[3]
	// m0 = A=0 row: MUX(B, f(0,0), f(0,1)); m1 = A=1 row.
	m0 := nl.AddGate(nl.FreshName(prefix+"_m0"), netlist.Mux, b, k00, k01)
	m1 := nl.AddGate(nl.FreshName(prefix+"_m1"), netlist.Mux, b, k10, k11)
	return nl.AddGate(nl.FreshName(prefix+"_o"), netlist.Mux, a, m0, m1)
}

// gateFunc2 returns the two-input Boolean function computed by a
// 2-fanin gate, or ok=false for types a 2-input LUT cannot absorb.
func gateFunc2(t netlist.GateType) (logic.Func2, bool) {
	switch t {
	case netlist.And:
		return logic.AND, true
	case netlist.Nand:
		return logic.NAND, true
	case netlist.Or:
		return logic.OR, true
	case netlist.Nor:
		return logic.NOR, true
	case netlist.Xor:
		return logic.XOR, true
	case netlist.Xnor:
		return logic.XNOR, true
	default:
		return 0, false
	}
}

// lutKeyBits converts a function to its four key-bit values in Table II
// order.
func lutKeyBits(f logic.Func2) [4]bool { return f.Keys() }

var errNoCandidates = fmt.Errorf("core: not enough obfuscatable 2-input gates")
