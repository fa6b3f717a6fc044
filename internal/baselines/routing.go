package baselines

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/netlist"
)

// RoutingLock is the routing-only obfuscation of FullLock/InterLock
// lineage ([10], [11]): N tapped wires pass through a key-controlled
// banyan network and reconnect to the original destinations — no LUT
// layer. The paper argues (and [11] demonstrated) that routing-only
// obfuscation falls to a smarter one-layer/one-hot re-encoding of the
// SAT problem; RIL-Blocks add the LUT layer precisely to close that
// hole.
//
// The returned RoutingNetwork describes the network so the one-hot
// attack can re-encode it.
type RoutingNetwork struct {
	Width       int      // N
	InputNames  []string // wires entering the network, line order
	OutputNames []string // MUX gates leaving the network, line order
	KeyPos      []int    // positions of the switch keys within Netlist.Inputs
}

// sortByKeyDesc stably sorts ints by a key, descending.
func sortByKeyDesc(s []int, key func(int) int) {
	sort.SliceStable(s, func(i, j int) bool { return key(s[i]) > key(s[j]) })
}

// RoutingLock inserts one N-wire banyan over N randomly tapped wires.
// N must be a power of two >= 2.
func RoutingLock(orig *netlist.Netlist, width int, seed int64) (*Locked, *RoutingNetwork, error) {
	if width < 2 || width&(width-1) != 0 {
		return nil, nil, fmt.Errorf("baselines: routing width %d must be a power of two >= 2", width)
	}
	nl := orig.Clone()
	rng := rand.New(rand.NewSource(seed))
	l := &Locked{Scheme: fmt.Sprintf("routing%d", width), Netlist: nl}

	// Tap wires whose fanouts we can legally permute: we cut each wire
	// and reconnect through the network, so no tapped wire may lie in
	// the transitive fanout of another (that would loop).
	var cands []int
	for id := range nl.Gates {
		if len(nl.Gates[id].Fanin) > 0 { // any logic gate output
			cands = append(cands, id)
		}
	}
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	// Prefer gates near the outputs: their transitive fanout is small,
	// so far more of them are pairwise non-interfering.
	if levels, _, err := nl.Levels(); err == nil {
		sortByKeyDesc(cands, func(id int) int { return levels[id] })
	}
	var taps []int
	fanouts := nl.FanoutLists()
	unionTFO := make([]bool, nl.NumGates())
	for _, cand := range cands {
		if len(taps) == width {
			break
		}
		if unionTFO[cand] {
			continue
		}
		tfo := netlist.FanoutCone(fanouts, cand)
		ok := true
		for _, tp := range taps {
			if tfo[tp] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		taps = append(taps, cand)
		for i, b := range tfo {
			if b {
				unionTFO[i] = true
			}
		}
	}
	if len(taps) < width {
		// Fallback: wires at the same logic level can never interfere
		// (a level-L gate's fanout lies strictly above level L).
		levels, _, err := nl.Levels()
		if err != nil {
			return nil, nil, err
		}
		byLevel := map[int][]int{}
		for _, c := range cands {
			byLevel[levels[c]] = append(byLevel[levels[c]], c)
		}
		best := -1
		for lv, g := range byLevel {
			if len(g) >= width && (best < 0 || lv < best) {
				best = lv
			}
		}
		if best < 0 {
			return nil, nil, fmt.Errorf("baselines: only %d non-interfering wires for a %d-wide network", len(taps), width)
		}
		taps = append([]int(nil), byLevel[best][:width]...)
	}

	// Random switch keys; the port assignment compensates so that the
	// network delivers each wire back to its own fanout.
	nSwitch := core.BanyanSwitchCount(width)
	keys := make([]bool, nSwitch)
	for i := range keys {
		keys[i] = rng.Intn(2) == 1
	}
	landed, err := core.BanyanPermute(width, keys)
	if err != nil {
		return nil, nil, err
	}
	// Output line j receives input port landed[j]; we want output j to
	// carry taps[j], so port landed[j] hosts taps[j].
	ports := make([]int, width)
	for j := 0; j < width; j++ {
		ports[landed[j]] = taps[j]
	}

	// Record the original readers of each tapped wire before the
	// network exists: RedirectFanout would otherwise also rewire the
	// network's own port connections and close a combinational loop.
	readers := make([][]int, width) // per tap: gate IDs reading it
	outputMarks := make([][]int, width)
	for j, tap := range taps {
		for id := range nl.Gates {
			for _, f := range nl.Gates[id].Fanin {
				if f == tap {
					readers[j] = append(readers[j], id)
					break
				}
			}
		}
		for oi, o := range nl.Outputs {
			if o == tap {
				outputMarks[j] = append(outputMarks[j], oi)
			}
		}
	}

	keyIDs := make([]int, nSwitch)
	net := &RoutingNetwork{Width: width}
	for i, v := range keys {
		net.KeyPos = append(net.KeyPos, len(nl.Inputs))
		keyIDs[i] = l.addKeyInput(nl, v)
	}
	outs, err := core.BuildBanyanNetwork(nl, "rlk", ports, keyIDs)
	if err != nil {
		return nil, nil, err
	}
	for p := range ports {
		net.InputNames = append(net.InputNames, nl.Gates[ports[p]].Name)
	}
	for j, out := range outs {
		net.OutputNames = append(net.OutputNames, nl.Gates[out].Name)
		for _, rd := range readers[j] {
			fin := nl.Gates[rd].Fanin
			for fi, f := range fin {
				if f == taps[j] {
					fin[fi] = out
				}
			}
		}
		for _, oi := range outputMarks[j] {
			nl.Outputs[oi] = out
		}
	}
	if err := nl.Validate(); err != nil {
		return nil, nil, err
	}
	checked, err := selfCheck(orig, l, seed)
	if err != nil {
		return nil, nil, err
	}
	return checked, net, nil
}
