package attack

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cnf"
	"repro/internal/netlist"
	"repro/internal/sat"
)

// EquivalenceVersion identifies EquivalentSAT's miter, as
// SensitizeVersion does Sensitize's search: 0 solved two full copies of
// the netlists, 1 solves what is left of the structurally hashed miter
// (cnf.Hasher). Verdicts are semantic, but a proof that ran out of
// budget under one version can finish under the other, and a
// counterexample's bits belong to one version. The keys of cached cells
// whose verdict EquivalentSAT gives carry it.
const EquivalenceVersion = 1

// ErrEquivalenceTimeout reports an EquivalentSAT call whose budget ran
// out before the proof did: the pair is undecided.
var ErrEquivalenceTimeout = errors.New("attack: equivalence check timed out")

// EquivalentSAT proves or refutes functional equivalence of two
// netlists with identical I/O signatures, inputs and outputs matched
// by position. It returns (true, nil) on proved equivalence, (false,
// cex) on a counterexample, and ErrEquivalenceTimeout if the solver
// runs out of budget.
//
// Both netlists are encoded into one structurally hashed formula over
// one input vector (cnf.Hasher), so logic they share becomes one node.
// An output whose two literals coincide is equal everywhere and drops
// out of the miter; one whose literals are complementary differs
// everywhere, so the all-zero input is a counterexample. Only the
// remaining outputs' difference clause goes to the solver, and a pair
// with none left is proved equivalent without a Solve call.
func EquivalentSAT(a, b *netlist.Netlist, timeout time.Duration) (bool, []bool, error) {
	if len(a.Inputs) != len(b.Inputs) || len(a.Outputs) != len(b.Outputs) {
		return false, nil, fmt.Errorf("attack: signature mismatch")
	}
	h := cnf.NewHasher()
	in := h.Inputs(len(a.Inputs))
	diffs, err := hashedDiffs(h, a, in, b, in)
	if err != nil {
		return false, nil, err
	}
	some, always := someDiffers(diffs)
	switch {
	case always: // complementary outputs: every input tells them apart
		return false, make([]bool, len(in)), nil
	case len(some) == 0: // every output pair is one node
		return true, nil, nil
	}
	h.F.AddClause(some...)
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	solver := loadSolver(h.F, deadline)
	switch solver.Solve() {
	case sat.Unsat:
		return true, nil, nil
	case sat.Sat:
		cex := make([]bool, len(in))
		for i, l := range in {
			cex[i] = solver.ModelValue(l)
		}
		return false, cex, nil
	}
	return false, nil, ErrEquivalenceTimeout
}

// hashedDiffs encodes a over inA and b over inB into h and returns
// each output pair's difference literal: LitFalse where both outputs
// hash to one node, LitTrue where they are complementary. EquivalentSAT
// and both of Sensitize's miters take their differences from it.
func hashedDiffs(h *cnf.Hasher, a *netlist.Netlist, inA []cnf.Lit, b *netlist.Netlist, inB []cnf.Lit) ([]cnf.Lit, error) {
	outA, err := h.Encode(a, inA)
	if err != nil {
		return nil, err
	}
	outB, err := h.Encode(b, inB)
	if err != nil {
		return nil, err
	}
	diffs := make([]cnf.Lit, len(outA))
	for i := range diffs {
		diffs[i] = h.Xor(outA[i], outB[i])
	}
	return diffs, nil
}

// someDiffers folds the constants out of the clause "some output
// differs" over diffs: a LitFalse difference never holds and leaves
// the clause, and a LitTrue one holds on every input, so always
// reports the clause true outright. No constant reaches clause.
func someDiffers(diffs []cnf.Lit) (clause []cnf.Lit, always bool) {
	for _, d := range diffs {
		switch d {
		case cnf.LitFalse:
		case cnf.LitTrue:
			always = true
		default:
			clause = append(clause, d)
		}
	}
	return clause, always
}

// StructuralRemoval models the removal attack the point-function
// papers are measured against: the attacker locates two-input XOR/XNOR
// gates that mix a key-dependent signal into otherwise key-free logic
// (the "flip" of SARLock/Anti-SAT/CAS-Lock, the restore unit of SFLL,
// or a plain key XOR) and bypasses them to the key-free side; whatever
// key-dependent logic remains is committed to a random configuration.
// It returns the stripped circuit with the original input signature.
//
// Against point functions the bypass recovers the (stripped) base
// circuit exactly; against RIL-Blocks the LUTs and routing MUXes
// *replace* original logic, so there is no key-free side to fall back
// to and removal leaves garbage (paper §IV-B: "removal of the
// RIL-blocks does not benefit the attacker in any way").
func StructuralRemoval(locked *netlist.Netlist, keyPos []int, seed int64) (*netlist.Netlist, error) {
	c := locked.Clone()
	keyIDs := make([]int, len(keyPos))
	for i, p := range keyPos {
		if p < 0 || p >= len(c.Inputs) {
			return nil, fmt.Errorf("attack: key position %d out of range", p)
		}
		keyIDs[i] = c.Inputs[p]
	}
	isKey := make(map[int]bool, len(keyIDs))
	for _, id := range keyIDs {
		isKey[id] = true
	}
	fanouts := c.FanoutLists()
	tainted := netlist.FanoutCone(fanouts, keyIDs...)

	// isDedicatedKeyModule reports whether fanin f of gate g is the
	// sole output of a key-bearing sub-circuit: its cone contains a key
	// input, and every internal gate of the cone feeds only the cone
	// (or g itself). This matches the lock-inserted flip/restore
	// modules while protecting original logic that merely sits
	// downstream of a key gate.
	isDedicatedKeyModule := func(f, g int) bool {
		cone := c.TransitiveFanin(f)
		hasKey := false
		for id, in := range cone {
			if !in {
				continue
			}
			if isKey[id] {
				hasKey = true
				continue
			}
			switch c.Gates[id].Type {
			case netlist.Input, netlist.Const0, netlist.Const1:
				continue // shared primary inputs are fine
			}
			for _, r := range fanouts[id] {
				if !cone[r] && r != g {
					return false
				}
			}
		}
		return hasKey
	}

	// Repeatedly bypass XOR/XNOR gates whose tainted fanin is a
	// dedicated key module.
	bypassed := make(map[int]bool)
	for changed := true; changed; {
		changed = false
		for id := range c.Gates {
			g := &c.Gates[id]
			if bypassed[id] || (g.Type != netlist.Xor && g.Type != netlist.Xnor) || len(g.Fanin) != 2 || !tainted[id] {
				continue
			}
			a, b := g.Fanin[0], g.Fanin[1]
			var clean, dirty int
			switch {
			case tainted[a] && !tainted[b]:
				clean, dirty = b, a
			case tainted[b] && !tainted[a]:
				clean, dirty = a, b
			default:
				continue
			}
			if !isDedicatedKeyModule(dirty, id) {
				continue
			}
			c.RedirectFanout(id, clean)
			bypassed[id] = true
			// Recompute reachability so cascaded bypasses see the
			// updated structure.
			fanouts = c.FanoutLists()
			tainted = netlist.FanoutCone(fanouts, keyIDs...)
			changed = true
		}
	}

	// Commit any surviving key dependence to a random configuration.
	rng := newRand(seed)
	vals := make([]bool, len(keyPos))
	for i := range vals {
		vals[i] = rng.Intn(2) == 1
	}
	stripped, err := c.BindInputs(keyPos, vals)
	if err != nil {
		return nil, err
	}
	return stripped, nil
}

// ScanSATResult reports a ScanSAT-style attack on the scan-enable
// obfuscation layer.
type ScanSATResult struct {
	SAT *SATResult
	// ScanError is the recovered model's error against the scan-mode
	// oracle (what the attacker can check; ~0 when the attack
	// converges).
	ScanError float64
	// FunctionalError is the recovered base key's error against the
	// true functional circuit (what actually matters; stays high for
	// RIL-Blocks, defeating the attack).
	FunctionalError float64
	// Defeated reports whether the attack failed to recover a
	// functionally correct key.
	Defeated bool
}

// ScanSAT models the ScanSAT attack (Alrahis et al.) applied to the
// scan-enable obfuscation: the attacker knows each LUT output may be
// conditionally inverted in scan mode, so it augments the locked
// netlist with one pseudo key bit per LUT driving an XOR at that LUT's
// output, then runs the plain SAT attack against the (corrupted) scan
// oracle. The augmented attack can converge on scan behaviour — but
// the (LUT configuration, inversion bit) pair is only determined up to
// simultaneous complement (paper §III-C: OR + inversion is
// indistinguishable from NOR), so the base key it returns is wrong for
// functional mode with probability 1 - 2^-L.
func ScanSAT(locked *netlist.Netlist, keyPos []int, lutOutNames []string,
	scanOracle, funcOracle Oracle, opt SATOptions) (*ScanSATResult, error) {
	aug := locked.Clone()
	augKeyPos := append([]int(nil), keyPos...)
	for i, lut := range lutOutNames {
		id, ok := aug.GateID(lut)
		if !ok {
			return nil, fmt.Errorf("attack: ScanSAT: no LUT output %q", lut)
		}
		keyName := aug.FreshName(fmt.Sprintf("scankey%d", i))
		augKeyPos = append(augKeyPos, len(aug.Inputs))
		kid := aug.AddInput(keyName)
		x := aug.AddGate(aug.FreshName(lut+"_sx"), netlist.Xor, id, kid)
		aug.RedirectFanout(id, x)
	}
	if err := aug.Validate(); err != nil {
		return nil, err
	}

	satRes, err := SATAttack(aug, augKeyPos, scanOracle, opt)
	if err != nil {
		return nil, err
	}
	res := &ScanSATResult{SAT: satRes, Defeated: true}
	if satRes.Status != KeyFound {
		return res, nil // did not even converge
	}
	scanErr, err := VerifyKey(aug, augKeyPos, satRes.Key, scanOracle, 4, 11)
	if err != nil {
		return nil, err
	}
	res.ScanError = scanErr
	baseKey := satRes.Key[:len(keyPos)]
	funcErr, err := VerifyKey(locked, keyPos, baseKey, funcOracle, 4, 12)
	if err != nil {
		return nil, err
	}
	res.FunctionalError = funcErr
	res.Defeated = funcErr > 0.001
	return res, nil
}
