// Package opt implements combinational logic optimization: constant
// folding, algebraic identity simplification, double-inverter removal
// and structural hashing (common-subexpression merging). It is the
// resynthesis substrate a reverse engineer runs on a locked netlist —
// binding a key and optimizing collapses the MUX lattice back to plain
// gates, which is how the overhead of an *activated* RIL design is
// measured fairly — and a building block for redundancy-removal
// attacks.
package opt

import (
	"fmt"
	"sort"

	"repro/internal/netlist"
)

// Stats reports what an optimization run changed.
type Stats struct {
	ConstFolds  int
	Identities  int
	InvPairs    int
	CSEMerges   int
	GatesBefore int
	GatesAfter  int
	Passes      int
}

func (s Stats) String() string {
	return fmt.Sprintf("opt: %d -> %d gates (%d const folds, %d identities, %d inverter pairs, %d CSE merges, %d passes)",
		s.GatesBefore, s.GatesAfter, s.ConstFolds, s.Identities, s.InvPairs, s.CSEMerges, s.Passes)
}

// Optimize simplifies the netlist in place to a fixpoint and prunes
// dead logic. The circuit's function is preserved (asserted by the
// test suite via SAT equivalence).
func Optimize(nl *netlist.Netlist) (Stats, error) {
	stats := Stats{GatesBefore: nl.NumLogicGates()}
	// Bounded fixpoint: every productive pass strictly shrinks or
	// canonicalizes the netlist, and the pass cap stops pathological
	// rewrite ping-pong, so the loop terminates without a context.
	const maxPasses = 50
	for stats.Passes <= maxPasses {
		changed := 0
		changed += constantFold(nl, &stats)
		changed += identities(nl, &stats)
		changed += inverterPairs(nl, &stats)
		changed += structuralHash(nl, &stats)
		stats.Passes++
		nl.Prune()
		if changed == 0 {
			break
		}
	}
	// Post-condition: the rewrite rules must never close a combinational
	// loop or leave a net undriven. Validate rejects cycles and dangling
	// fanin; the undriven scan below covers the one defect it does not —
	// an Input-type gate that is not a declared primary input. The check
	// is deliberately local: it is the one undriven-net rule the
	// optimizer needs, so opt does not take on netlint and its analyzer
	// framework for it.
	if err := nl.Validate(); err != nil {
		return stats, fmt.Errorf("opt: optimizer broke the netlist: %w", err)
	}
	declared := make(map[int]bool, len(nl.Inputs))
	for _, id := range nl.Inputs {
		declared[id] = true
	}
	for id := range nl.Gates {
		if nl.Gates[id].Type == netlist.Input && !declared[id] {
			return stats, fmt.Errorf("opt: optimizer broke the netlist: net %q is undriven", nl.Gates[id].Name)
		}
	}
	stats.GatesAfter = nl.NumLogicGates()
	return stats, nil
}

// isNotOf reports whether gate x is NOT(y).
func isNotOf(nl *netlist.Netlist, x, y int) bool {
	return nl.Gates[x].Type == netlist.Not && nl.Gates[x].Fanin[0] == y
}

// constKind classifies a gate as constant 0/1 or neither.
func constKind(nl *netlist.Netlist, id int) (bool, bool) { // (isConst, value)
	switch nl.Gates[id].Type {
	case netlist.Const0:
		return true, false
	case netlist.Const1:
		return true, true
	}
	return false, false
}

// replaceWithConst rewires a gate to a constant.
func replaceWithConst(nl *netlist.Netlist, id int, v bool) {
	t := netlist.Const0
	if v {
		t = netlist.Const1
	}
	c := nl.AddGate(nl.FreshName("k"), t)
	nl.RedirectFanout(id, c)
}

func constantFold(nl *netlist.Netlist, stats *Stats) int {
	order, err := nl.TopoOrder()
	if err != nil {
		return 0
	}
	changed := 0
	for _, id := range order {
		g := &nl.Gates[id]
		switch g.Type {
		case netlist.Input, netlist.Const0, netlist.Const1:
			continue
		}
		// Collect constant / non-constant fanins.
		var live []int
		allConstTrue := true
		forced := -1 // -1 none, 0 forced-0, 1 forced-1
		for _, f := range g.Fanin {
			isC, v := constKind(nl, f)
			if !isC {
				live = append(live, f)
				allConstTrue = false
				continue
			}
			switch g.Type {
			case netlist.And, netlist.Nand:
				if !v {
					forced = 0
				}
			case netlist.Or, netlist.Nor:
				if v {
					forced = 1
				}
			}
			if !v {
				allConstTrue = false
			}
		}
		switch g.Type {
		case netlist.Not:
			if isC, v := constKind(nl, g.Fanin[0]); isC {
				replaceWithConst(nl, id, !v)
				stats.ConstFolds++
				changed++
			}
		case netlist.Buf:
			if isC, v := constKind(nl, g.Fanin[0]); isC {
				replaceWithConst(nl, id, v)
				stats.ConstFolds++
				changed++
			} else {
				nl.RedirectFanout(id, g.Fanin[0])
				stats.Identities++
				changed++
			}
		case netlist.And, netlist.Nand:
			neg := g.Type == netlist.Nand
			if forced == 0 {
				replaceWithConst(nl, id, neg)
				stats.ConstFolds++
				changed++
			} else if len(live) == 0 {
				replaceWithConst(nl, id, allConstTrue != neg)
				stats.ConstFolds++
				changed++
			} else if len(live) < len(g.Fanin) {
				// Drop const-1 fanins.
				if len(live) == 1 && !neg {
					nl.RedirectFanout(id, live[0])
				} else if len(live) == 1 {
					inv := nl.AddGate(nl.FreshName("n"), netlist.Not, live[0])
					nl.RedirectFanout(id, inv)
				} else {
					nl.SetFanin(id, live...)
				}
				stats.ConstFolds++
				changed++
			}
		case netlist.Or, netlist.Nor:
			neg := g.Type == netlist.Nor
			anyTrue := forced == 1
			if anyTrue {
				replaceWithConst(nl, id, !neg)
				stats.ConstFolds++
				changed++
			} else if len(live) == 0 {
				replaceWithConst(nl, id, neg)
				stats.ConstFolds++
				changed++
			} else if len(live) < len(g.Fanin) {
				if len(live) == 1 && !neg {
					nl.RedirectFanout(id, live[0])
				} else if len(live) == 1 {
					inv := nl.AddGate(nl.FreshName("n"), netlist.Not, live[0])
					nl.RedirectFanout(id, inv)
				} else {
					nl.SetFanin(id, live...)
				}
				stats.ConstFolds++
				changed++
			}
		case netlist.Xor, netlist.Xnor:
			parity := g.Type == netlist.Xnor
			for _, f := range g.Fanin {
				if isC, v := constKind(nl, f); isC && v {
					parity = !parity
				}
			}
			if len(live) == 0 {
				replaceWithConst(nl, id, parity)
				stats.ConstFolds++
				changed++
			} else if len(live) < len(g.Fanin) {
				if len(live) == 1 && !parity {
					nl.RedirectFanout(id, live[0])
				} else if len(live) == 1 {
					inv := nl.AddGate(nl.FreshName("n"), netlist.Not, live[0])
					nl.RedirectFanout(id, inv)
				} else {
					t := netlist.Xor
					if parity {
						t = netlist.Xnor
					}
					repl := nl.AddGate(nl.FreshName("x"), t, live...)
					nl.RedirectFanout(id, repl)
				}
				stats.ConstFolds++
				changed++
			}
		case netlist.Mux:
			s, a, b := g.Fanin[0], g.Fanin[1], g.Fanin[2]
			if isC, v := constKind(nl, s); isC {
				pick := a
				if v {
					pick = b
				}
				nl.RedirectFanout(id, pick)
				stats.ConstFolds++
				changed++
			} else if a == b {
				nl.RedirectFanout(id, a)
				stats.Identities++
				changed++
			} else {
				aC, aV := constKind(nl, a)
				bC, bV := constKind(nl, b)
				switch {
				case aC && bC && aV == bV:
					replaceWithConst(nl, id, aV)
					stats.ConstFolds++
					changed++
				case aC && bC && !aV && bV:
					// MUX(s,0,1) = s
					nl.RedirectFanout(id, s)
					stats.ConstFolds++
					changed++
				case aC && bC && aV && !bV:
					inv := nl.AddGate(nl.FreshName("n"), netlist.Not, s)
					nl.RedirectFanout(id, inv)
					stats.ConstFolds++
					changed++
				case aC && !aV: // MUX(s,0,b) = s AND b
					repl := nl.AddGate(nl.FreshName("m"), netlist.And, s, b)
					nl.RedirectFanout(id, repl)
					stats.ConstFolds++
					changed++
				case aC && aV: // MUX(s,1,b) = ¬s OR b = NOT(s AND ¬b): use OR(NOT s, b)
					ns := nl.AddGate(nl.FreshName("n"), netlist.Not, s)
					repl := nl.AddGate(nl.FreshName("m"), netlist.Or, ns, b)
					nl.RedirectFanout(id, repl)
					stats.ConstFolds++
					changed++
				case bC && !bV: // MUX(s,a,0) = ¬s AND a
					ns := nl.AddGate(nl.FreshName("n"), netlist.Not, s)
					repl := nl.AddGate(nl.FreshName("m"), netlist.And, ns, a)
					nl.RedirectFanout(id, repl)
					stats.ConstFolds++
					changed++
				case bC && bV: // MUX(s,a,1) = s OR a
					repl := nl.AddGate(nl.FreshName("m"), netlist.Or, s, a)
					nl.RedirectFanout(id, repl)
					stats.ConstFolds++
					changed++
				case isNotOf(nl, b, a): // MUX(s,a,¬a) = s XOR a
					repl := nl.AddGate(nl.FreshName("m"), netlist.Xor, s, a)
					nl.RedirectFanout(id, repl)
					stats.Identities++
					changed++
				case isNotOf(nl, a, b): // MUX(s,¬b,b) = s XNOR b
					repl := nl.AddGate(nl.FreshName("m"), netlist.Xnor, s, b)
					nl.RedirectFanout(id, repl)
					stats.Identities++
					changed++
				}
			}
		}
	}
	return changed
}

// identities applies x-op-x rules.
func identities(nl *netlist.Netlist, stats *Stats) int {
	changed := 0
	for id := range nl.Gates {
		g := &nl.Gates[id]
		if len(g.Fanin) != 2 || g.Fanin[0] != g.Fanin[1] {
			continue
		}
		x := g.Fanin[0]
		switch g.Type {
		case netlist.And, netlist.Or:
			nl.RedirectFanout(id, x)
		case netlist.Nand, netlist.Nor:
			inv := nl.AddGate(nl.FreshName("n"), netlist.Not, x)
			nl.RedirectFanout(id, inv)
		case netlist.Xor:
			replaceWithConst(nl, id, false)
		case netlist.Xnor:
			replaceWithConst(nl, id, true)
		default:
			continue
		}
		stats.Identities++
		changed++
	}
	return changed
}

// inverterPairs collapses NOT(NOT(x)) to x.
func inverterPairs(nl *netlist.Netlist, stats *Stats) int {
	changed := 0
	for id := range nl.Gates {
		g := &nl.Gates[id]
		if g.Type != netlist.Not {
			continue
		}
		inner := g.Fanin[0]
		if nl.Gates[inner].Type == netlist.Not {
			nl.RedirectFanout(id, nl.Gates[inner].Fanin[0])
			stats.InvPairs++
			changed++
		}
	}
	return changed
}

// structuralHash merges gates computing the identical expression.
func structuralHash(nl *netlist.Netlist, stats *Stats) int {
	changed := 0
	seen := map[string]int{}
	order, err := nl.TopoOrder()
	if err != nil {
		return 0
	}
	for _, id := range order {
		g := &nl.Gates[id]
		switch g.Type {
		case netlist.Input, netlist.Const0, netlist.Const1:
			continue
		}
		key := hashKey(g)
		if prev, ok := seen[key]; ok && prev != id {
			nl.RedirectFanout(id, prev)
			stats.CSEMerges++
			changed++
			continue
		}
		seen[key] = id
	}
	return changed
}

// hashKey canonicalizes a gate: commutative operators sort their
// fanins; MUX keeps order.
func hashKey(g *netlist.Gate) string {
	fin := append([]int(nil), g.Fanin...)
	switch g.Type {
	case netlist.And, netlist.Nand, netlist.Or, netlist.Nor, netlist.Xor, netlist.Xnor:
		sort.Ints(fin)
	}
	return fmt.Sprintf("%d:%v", g.Type, fin)
}
