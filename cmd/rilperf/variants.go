package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"time"

	"repro/internal/attack"
	"repro/internal/baselines"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/sweep"
)

// attack-variants: the attacks built on hand-made miters that call
// sat.New() and re-encode the netlist every iteration, rotating AppSAT,
// an EquivalentSAT proof of AppSAT's key, the one-hot re-encoding
// attack and key sensitization, one instance set per derived seed.
var variantsWorkload = workload{
	name:    "attack-variants",
	streams: 1,
	sample:  32,
	setup:   setupVariants,
}

// The random circuits the one-hot and sensitization attacks run on.
var (
	routedProfile = netlist.RandomProfile{Name: "routed", Inputs: 16, Outputs: 12, Gates: 300, Locality: 0.3}
	xoredProfile  = netlist.RandomProfile{Name: "xored", Inputs: 16, Outputs: 8, Gates: 200, Locality: 0.3}
)

const (
	variantsAppSATBlocks = 3
	variantsRoutingWidth = 8
	variantsXORKeys      = 10
	variantsBudget       = 60 * time.Second
)

// variantSet is one seed's instances, attacked by four consecutive ops.
type variantSet struct {
	seed int64

	appsat *core.Result // c7552@0.1 with 3 2×2 blocks
	appKey []bool       // AppSAT's key, proved by the next op

	routed     *baselines.Locked // routing-only lock of a random netlist
	hints      []attack.RoutingHint
	routedOrig *attack.SimOracle

	xor     *baselines.Locked // XOR lock of a random netlist
	xorOrig *attack.SimOracle
}

type variants struct {
	orig       *netlist.Netlist
	functional *attack.SimOracle
	sets       []*variantSet
}

func setupVariants(e env) (instance, error) {
	orig, err := c7552()
	if err != nil {
		return nil, err
	}
	functional, err := attack.NewSimOracle(orig)
	if err != nil {
		return nil, err
	}
	n := 60
	if e.quick {
		n = 1
	}
	w := &variants{orig: orig, functional: functional}
	for k := 0; k < n; k++ {
		s := sweep.DeriveSeed(e.seed, k)
		set := &variantSet{seed: s}
		if set.appsat, err = core.Lock(orig, core.Options{Blocks: variantsAppSATBlocks, Size: core.Size2x2, Seed: s}); err != nil {
			return nil, err
		}
		rorig, err := routedCircuit(s)
		if err != nil {
			return nil, err
		}
		var net *baselines.RoutingNetwork
		if set.routed, net, err = baselines.RoutingLock(rorig, variantsRoutingWidth, sweep.DeriveSeed(s, 1)); err != nil {
			return nil, err
		}
		set.hints = []attack.RoutingHint{attack.HintFromRoutingNetwork(net.Width, net.InputNames, net.OutputNames, net.KeyPos)}
		if set.routedOrig, err = attack.NewSimOracle(rorig); err != nil {
			return nil, err
		}
		xorig, err := netlist.Random(xoredProfile, sweep.DeriveSeed(s, 2))
		if err != nil {
			return nil, err
		}
		if set.xor, err = baselines.XORLock(xorig, variantsXORKeys, sweep.DeriveSeed(s, 3)); err != nil {
			return nil, err
		}
		if set.xorOrig, err = attack.NewSimOracle(xorig); err != nil {
			return nil, err
		}
		w.sets = append(w.sets, set)
	}
	return w, nil
}

// routedCircuit draws the circuit the one-hot attack's routing lock
// goes into: a 16-input, 12-output random netlist whose outputs are
// re-driven one level above every other gate (each XORed with the
// deepest gate), so the lock's network taps 8 of them. Draws whose
// outputs are not pairwise different, non-constant functions over all
// 2^16 inputs are rejected. With distinct tapped outputs the true
// permutation is the only one the oracle accepts, so the attack's key
// maps back onto the banyan and can be verified; interchangeable taps
// let it converge on an equivalent permutation the banyan cannot route
// (about one draw in eleven), whose key no public API exposes.
func routedCircuit(seed int64) (*netlist.Netlist, error) {
	for j := 0; ; j++ {
		nl, err := netlist.Random(routedProfile, sweep.DeriveSeed(seed, 10+j))
		if err != nil {
			return nil, err
		}
		levels, _, err := nl.Levels()
		if err != nil {
			return nil, err
		}
		deep := 0
		for id := range nl.Gates {
			if levels[id] > levels[deep] {
				deep = id
			}
		}
		for k, o := range nl.Outputs {
			if o == deep {
				nl.Outputs[k] = nl.AddGate(nl.FreshName("y"), netlist.Not, o)
			} else {
				nl.Outputs[k] = nl.AddGate(nl.FreshName("y"), netlist.Xor, o, deep)
			}
		}
		if err := nl.Validate(); err != nil {
			return nil, err
		}
		distinct, err := distinctOutputs(nl)
		if err != nil || distinct {
			return nl, err
		}
	}
}

// distinctOutputs reports whether a netlist of at least 6 inputs
// computes pairwise different, non-constant functions at its outputs,
// simulating every input pattern: the first six inputs vary across a
// word's 64 lanes, the rest across words.
func distinctOutputs(nl *netlist.Netlist) (bool, error) {
	sim, err := netlist.NewSimulator(nl)
	if err != nil {
		return false, err
	}
	lanes := [6]uint64{0xaaaaaaaaaaaaaaaa, 0xcccccccccccccccc, 0xf0f0f0f0f0f0f0f0, 0xff00ff00ff00ff00, 0xffff0000ffff0000, 0xffffffff00000000}
	in := make([]uint64, len(nl.Inputs))
	copy(in, lanes[:])
	hashes := make([]hash.Hash64, len(nl.Outputs))
	constant := make([]bool, len(nl.Outputs))
	var first []uint64
	for w := 0; w < 1<<(len(in)-6); w++ {
		for i := 6; i < len(in); i++ {
			in[i] = -uint64(w >> (i - 6) & 1)
		}
		out := sim.Run(in)
		if w == 0 {
			first = append(first, out...)
		}
		var buf [8]byte
		for o, v := range out {
			if hashes[o] == nil {
				hashes[o] = fnv.New64a()
				constant[o] = v == 0 || v == ^uint64(0)
			}
			constant[o] = constant[o] && v == first[o]
			binary.LittleEndian.PutUint64(buf[:], v)
			hashes[o].Write(buf[:])
		}
	}
	seen := map[uint64]bool{}
	for o, h := range hashes {
		if constant[o] || seen[h.Sum64()] {
			return false, nil
		}
		seen[h.Sum64()] = true
	}
	return true, nil
}

// boundOracle activates a locked netlist with its correct key.
func boundOracle(locked *netlist.Netlist, keyPos []int, key []bool) (*attack.SimOracle, error) {
	bound, err := locked.BindInputs(keyPos, key)
	if err != nil {
		return nil, err
	}
	return attack.NewSimOracle(bound)
}

func (w *variants) do(c opCtx) (func() error, error) {
	set := w.sets[(c.op/4)%len(w.sets)]
	switch c.op % 4 {
	case 0:
		return w.appSAT(c, set)
	case 1:
		return w.equivalence(c, set)
	case 2:
		return oneHot(c, set)
	}
	return sensitize(c, set)
}

func (w *variants) appSAT(c opCtx, set *variantSet) (func() error, error) {
	res := set.appsat
	sim, err := boundOracle(res.Locked, res.KeyInputPos, res.Key)
	if err != nil {
		return nil, err
	}
	ac, end := c.span("attack.AppSAT")
	oracle, timed := ac.oracle(sim)
	opt := attack.DefaultAppSAT()
	opt.Seed = set.seed
	opt.Timeout = variantsBudget
	t0 := time.Now()
	r, err := attack.AppSAT(res.Locked, res.KeyInputPos, oracle, opt)
	wall := time.Since(t0)
	end()
	if err != nil {
		return nil, err
	}
	recordAttack(ac, wall, timed, r.DIPs)
	set.appKey = r.Key
	// AppSAT returns an approximate key by design: it must meet the
	// error rate AppSAT itself stops at, measured independently.
	return func() error {
		return verifyKey(res.Locked, res.KeyInputPos, r.Status, r.Key, w.functional, set.seed, opt.ErrorThreshold)
	}, nil
}

func (w *variants) equivalence(c opCtx, set *variantSet) (func() error, error) {
	if set.appKey == nil {
		return nil, fmt.Errorf("no AppSAT key to prove")
	}
	recovered, err := set.appsat.ApplyKey(set.appKey)
	if err != nil {
		return nil, err
	}
	_, end := c.span("attack.EquivalentSAT")
	eq, cex, err := attack.EquivalentSAT(w.orig, recovered, variantsBudget)
	end()
	if err != nil {
		return nil, err
	}
	// The verdict must agree with simulation: an equivalent key has no
	// output error, and a counterexample really tells the circuits apart.
	return func() error {
		if eq {
			return verifyKey(set.appsat.Locked, set.appsat.KeyInputPos, attack.KeyFound, set.appKey, w.functional, set.seed, 0)
		}
		differ, err := outputsDiffer(w.orig, recovered, cex)
		if err != nil {
			return err
		}
		if !differ {
			return fmt.Errorf("EquivalentSAT counterexample %v does not distinguish the circuits", cex)
		}
		return nil
	}, nil
}

// outputsDiffer simulates two circuits with one input signature on one
// pattern.
func outputsDiffer(a, b *netlist.Netlist, in []bool) (bool, error) {
	sa, err := netlist.NewSimulator(a)
	if err != nil {
		return false, err
	}
	sb, err := netlist.NewSimulator(b)
	if err != nil {
		return false, err
	}
	oa, ob := sa.Eval(in), sb.Eval(in)
	for i := range oa {
		if oa[i] != ob[i] {
			return true, nil
		}
	}
	return false, nil
}

func oneHot(c opCtx, set *variantSet) (func() error, error) {
	l := set.routed
	sim, err := boundOracle(l.Netlist, l.KeyPos, l.Key)
	if err != nil {
		return nil, err
	}
	ac, end := c.span("attack.SATAttackOneHot")
	oracle, timed := ac.oracle(sim)
	t0 := time.Now()
	r, err := attack.SATAttackOneHot(l.Netlist, l.KeyPos, set.hints, oracle, attack.SATOptions{Timeout: variantsBudget})
	wall := time.Since(t0)
	end()
	if err != nil {
		return nil, err
	}
	recordAttack(ac, wall, timed, r.SAT.Iterations)
	recordSolver(ac, r.SAT.Solver, wall-timed.busyTime())
	return func() error {
		if !r.Realizable {
			return fmt.Errorf("one-hot key (%v) does not map back onto the banyan", r.SAT.Status)
		}
		return verifyKey(l.Netlist, l.KeyPos, r.SAT.Status, r.Key, set.routedOrig, set.seed, 0)
	}, nil
}

func sensitize(c opCtx, set *variantSet) (func() error, error) {
	l := set.xor
	sim, err := boundOracle(l.Netlist, l.KeyPos, l.Key)
	if err != nil {
		return nil, err
	}
	ac, end := c.span("attack.Sensitize")
	oracle, timed := ac.oracle(sim)
	t0 := time.Now()
	r, err := attack.Sensitize(l.Netlist, l.KeyPos, oracle, 16, variantsBudget)
	wall := time.Since(t0)
	end()
	if err != nil {
		return nil, err
	}
	recordAttack(ac, wall, timed, 0)
	// A golden pattern proves its key bit: every resolved bit must be
	// the lock's.
	return func() error {
		for i, ok := range r.Mask {
			if ok && r.Key[i] != l.Key[i] {
				return fmt.Errorf("sensitization resolved key bit %d wrongly", i)
			}
		}
		return nil
	}, nil
}

func (w *variants) finish() error { return nil }

func (w *variants) probe() probeInputs {
	set := w.sets[0]
	return probeInputs{
		locked: []lockedCircuit{
			{set.appsat.Locked, set.appsat.KeyInputPos, set.appsat.Key},
			{set.routed.Netlist, set.routed.KeyPos, set.routed.Key},
			{set.xor.Netlist, set.xor.KeyPos, set.xor.Key},
		},
		locks: []lockSpec{{w.orig, core.Options{Blocks: variantsAppSATBlocks, Size: core.Size2x2, Seed: set.seed}}},
		synth: []func() (*netlist.Netlist, error){
			c7552,
			func() (*netlist.Netlist, error) { return netlist.Random(xoredProfile, sweep.DeriveSeed(set.seed, 2)) },
		},
		payload: attackPayload,
	}
}

func (w *variants) cache() *cache.Cache { return nil }
func (w *variants) close() error        { return nil }
