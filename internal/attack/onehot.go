package attack

import (
	"fmt"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/netlist"
)

// RoutingHint describes one key-controlled permutation network inside
// a locked netlist, as recovered by the attacker's structural analysis
// (the banyan MUX lattice is an easily recognizable pattern). The
// one-layer linear encoding of §IV-B replaces the network's MUX-tree
// sub-CNF with a single crossbar layer selected by one-hot variables.
type RoutingHint struct {
	Width       int
	InputNames  []string // wires entering the network, line order
	OutputNames []string // gates leaving the network, line order
	KeyPos      []int    // the network's switch-key input positions
}

// HintsFromRIL extracts the routing networks of an RIL-locked design
// (in the threat model the attacker reverse-engineers this structure
// from the netlist; the lock result just saves us re-implementing the
// pattern matcher).
func HintsFromRIL(res *core.Result) []RoutingHint {
	var hints []RoutingHint
	for _, blk := range res.Blocks {
		if blk.Size.InputRouting {
			hints = append(hints, RoutingHint{
				Width:       2 * blk.Size.K,
				InputNames:  blk.PortWire,
				OutputNames: blk.InNetOut,
				KeyPos:      mapKeyPos(res, blk.InKeyPos),
			})
		}
		if blk.Size.OutputRouting {
			hints = append(hints, RoutingHint{
				Width:       blk.Size.K,
				InputNames:  blk.LUTOut,
				OutputNames: blk.OutNetOut,
				KeyPos:      mapKeyPos(res, blk.OutKeyPos),
			})
		}
	}
	return hints
}

// mapKeyPos converts key-vector indices to input positions.
func mapKeyPos(res *core.Result, keyIdx []int) []int {
	out := make([]int, len(keyIdx))
	for i, ki := range keyIdx {
		out[i] = res.KeyInputPos[ki]
	}
	return out
}

// HintFromRoutingNetwork adapts the routing-only baseline's network
// descriptor.
func HintFromRoutingNetwork(width int, inputNames, outputNames []string, keyPos []int) RoutingHint {
	return RoutingHint{Width: width, InputNames: inputNames, OutputNames: outputNames, KeyPos: keyPos}
}

// OneHotResult reports the one-layer linear-encoding attack.
type OneHotResult struct {
	// SAT is the attack on the relaxed netlist; SAT.Key is in the
	// relaxed key space (original keys, then every selector input).
	SAT *SATResult
	// Realizable reports whether every recovered crossbar permutation
	// mapped back onto banyan switch settings (the relaxed key space is
	// a superset of what the silicon can realize).
	Realizable bool
	// Key is the recovered key in the original key space, valid when
	// SAT.Status == KeyFound and Realizable.
	Key []bool
}

// SATAttackOneHot mounts the SAT attack against the one-layer linear
// re-encoding of the routing networks (paper §IV-B): each hinted
// network is replaced by an N×N crossbar whose selector variables are
// constrained to a permutation matrix. This is the pre-processing that
// defeated routing-only obfuscation [11]; against RIL-Blocks the
// coupled LUT layer keeps the instance hard. The attack runs on
// SATAttack's DIP loop over the relaxed netlist, so every SATOptions
// field applies; a journal records the relaxed attack.
func SATAttackOneHot(locked *netlist.Netlist, keyPos []int, hints []RoutingHint, oracle Oracle, opt SATOptions) (*OneHotResult, error) {
	relaxed, relaxedKeyPos, selGroups, err := buildRelaxed(locked, keyPos, hints)
	if err != nil {
		return nil, err
	}
	// Permutation-matrix constraints on the selector groups, for both
	// key copies (DIP-constraint copies share these key variables, so
	// the constraints cover them too).
	permutations := func(enc *cnf.Encoder, c1, c2 *cnf.GateVars) {
		for _, gv := range []*cnf.GateVars{c1, c2} {
			for _, grp := range selGroups {
				n := grp.width
				// Rows: each output picks exactly one input.
				for j := 0; j < n; j++ {
					lits := make([]cnf.Lit, n)
					for i := 0; i < n; i++ {
						lits[i] = cnf.MkLit(gv.Inputs[grp.selPos[j*n+i]], false)
					}
					enc.ExactlyOne(lits)
				}
				// Columns: each input feeds exactly one output.
				for i := 0; i < n; i++ {
					lits := make([]cnf.Lit, n)
					for j := 0; j < n; j++ {
						lits[j] = cnf.MkLit(gv.Inputs[grp.selPos[j*n+i]], false)
					}
					enc.ExactlyOne(lits)
				}
			}
		}
	}
	res, err := dipLoop(relaxed, relaxedKeyPos, oracle, opt, loopHooks{base: permutations})
	if err != nil {
		return nil, err
	}
	out := &OneHotResult{SAT: res}
	if res.Status == KeyFound {
		out.Key, out.Realizable = mapBackKey(locked, keyPos, hints, relaxed, relaxedKeyPos, res.Key, selGroups)
	}
	return out, nil
}

// selGroup tracks one crossbar's selector inputs within the relaxed
// netlist: selPos[j*width+i] is the input position of sel(out j, in i).
type selGroup struct {
	width  int
	selPos []int
	hint   RoutingHint
}

// buildRelaxed clones the locked netlist and replaces each hinted
// network with a one-hot crossbar.
func buildRelaxed(locked *netlist.Netlist, keyPos []int, hints []RoutingHint) (*netlist.Netlist, []int, []selGroup, error) {
	c := locked.Clone()
	isOldKey := map[int]bool{}
	for _, p := range keyPos {
		isOldKey[p] = true
	}
	var groups []selGroup
	for h, hint := range hints {
		n := hint.Width
		if len(hint.InputNames) != n || len(hint.OutputNames) != n {
			return nil, nil, nil, fmt.Errorf("attack: onehot: hint %d geometry mismatch", h)
		}
		grp := selGroup{width: n, hint: hint}
		ins := make([]int, n)
		for i, name := range hint.InputNames {
			id, ok := c.GateID(name)
			if !ok {
				return nil, nil, nil, fmt.Errorf("attack: onehot: missing input wire %q", name)
			}
			ins[i] = id
		}
		for j := 0; j < n; j++ {
			terms := make([]int, n)
			for i := 0; i < n; i++ {
				grp.selPos = append(grp.selPos, len(c.Inputs))
				sel := c.AddInput(c.FreshName(fmt.Sprintf("onehot%d_%d_%d", h, j, i)))
				terms[i] = c.AddGate(c.FreshName(fmt.Sprintf("xb%d_%d_%d", h, j, i)), netlist.And, sel, ins[i])
			}
			out := terms[0]
			for i := 1; i < n; i++ {
				out = c.AddGate(c.FreshName(fmt.Sprintf("xbo%d_%d_%d", h, j, i)), netlist.Or, out, terms[i])
			}
			oldID, ok := c.GateID(hint.OutputNames[j])
			if !ok {
				return nil, nil, nil, fmt.Errorf("attack: onehot: missing output wire %q", hint.OutputNames[j])
			}
			c.RedirectFanout(oldID, out)
		}
		groups = append(groups, grp)
	}
	// Drop the dead banyan MUX lattice so the relaxed CNF really is
	// smaller (inputs — including the now-dangling switch keys — are
	// always retained, so input positions stay valid).
	c.Prune()
	if err := c.Validate(); err != nil {
		return nil, nil, nil, err
	}
	// Relaxed key set: original keys (the dead switch keys stay in the
	// set as unconstrained variables) plus all selector inputs.
	relaxedKeyPos := append([]int(nil), keyPos...)
	for _, grp := range groups {
		relaxedKeyPos = append(relaxedKeyPos, grp.selPos...)
	}
	return c, relaxedKeyPos, groups, nil
}

// mapBackKey converts a relaxed-model key into the original key space:
// selector matrices become banyan switch settings via destination-tag
// routing; all other key bits carry over.
func mapBackKey(locked *netlist.Netlist, keyPos []int, hints []RoutingHint,
	relaxed *netlist.Netlist, relaxedKeyPos []int, relaxedKey []bool, groups []selGroup) ([]bool, bool) {

	valueAt := make(map[int]bool, len(relaxedKeyPos)) // input position -> bit
	for i, p := range relaxedKeyPos {
		valueAt[p] = relaxedKey[i]
	}
	// Original non-switch keys carry over positionally (the clone
	// preserved input order for the original inputs).
	key := make([]bool, len(keyPos))
	for i, p := range keyPos {
		key[i] = valueAt[p]
	}
	// Overwrite each network's switch keys with a routed realization.
	posToIdx := make(map[int]int, len(keyPos))
	for i, p := range keyPos {
		posToIdx[p] = i
	}
	ok := true
	for gi, grp := range groups {
		n := grp.width
		dest := make([]int, n)
		valid := true
		for j := 0; j < n; j++ {
			src := -1
			for i := 0; i < n; i++ {
				if valueAt[grp.selPos[j*n+i]] {
					if src >= 0 {
						valid = false
					}
					src = i
				}
			}
			if src < 0 {
				valid = false
				break
			}
			dest[src] = j
		}
		if !valid {
			ok = false
			continue
		}
		keys, routed := core.RouteBanyan(n, dest)
		if !routed {
			ok = false
			continue
		}
		for ki, kp := range hints[gi].KeyPos {
			if idx, exists := posToIdx[kp]; exists {
				key[idx] = keys[ki]
			}
		}
	}
	return key, ok
}
