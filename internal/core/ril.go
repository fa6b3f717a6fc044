package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// Size describes an RIL-Block geometry. K is the number of 2-input
// LUTs (= replaced gates). InputRouting adds a 2K-wire banyan in front
// of the LUT layer (which of the 2K tapped wires feeds which LUT pin is
// key-dependent); OutputRouting adds a K-wire banyan behind the LUT
// layer (which LUT drives which replaced gate's fanout is
// key-dependent).
type Size struct {
	K             int
	InputRouting  bool
	OutputRouting bool
}

// Preset geometries matching the paper's nomenclature. "2×2" is the
// Fig. 3 block: two LUTs and a single output switchbox. "8×8" adds the
// input interconnect network over the 16 tapped wires. "8×8×8" has
// routing on both sides of the LUT layer.
var (
	Size2x2   = Size{K: 2, InputRouting: false, OutputRouting: true}
	Size8x8   = Size{K: 8, InputRouting: true, OutputRouting: false}
	Size8x8x8 = Size{K: 8, InputRouting: true, OutputRouting: true}
)

// ParseSize resolves "2x2", "8x8", "8x8x8" (also accepts "KxK" and
// "KxKxK" for other even powers of two, e.g. "4x4x4").
func ParseSize(s string) (Size, error) {
	parts := strings.Split(strings.ToLower(s), "x")
	bad := func() (Size, error) { return Size{}, fmt.Errorf("core: cannot parse RIL size %q", s) }
	if len(parts) < 2 || len(parts) > 3 {
		return bad()
	}
	var k int
	if _, err := fmt.Sscanf(parts[0], "%d", &k); err != nil || k < 2 {
		return bad()
	}
	for _, p := range parts[1:] {
		var k2 int
		if _, err := fmt.Sscanf(p, "%d", &k2); err != nil || k2 != k {
			return bad()
		}
	}
	switch {
	case k == 2 && len(parts) == 2:
		return Size2x2, nil
	case len(parts) == 2:
		return Size{K: k, InputRouting: true, OutputRouting: false}, nil
	default:
		return Size{K: k, InputRouting: true, OutputRouting: true}, nil
	}
}

// String renders the geometry in the paper's notation.
func (s Size) String() string {
	switch {
	case !s.InputRouting && s.OutputRouting && s.K == 2:
		return "2x2"
	case s.InputRouting && !s.OutputRouting:
		return fmt.Sprintf("%dx%d", s.K, s.K)
	case s.InputRouting && s.OutputRouting:
		return fmt.Sprintf("%dx%dx%d", s.K, s.K, s.K)
	case !s.InputRouting && !s.OutputRouting:
		return fmt.Sprintf("lut%d", s.K)
	default:
		return fmt.Sprintf("Size{K:%d,in:%v,out:%v}", s.K, s.InputRouting, s.OutputRouting)
	}
}

// Options configures Lock.
type Options struct {
	Blocks     int   // number of RIL-Blocks to insert
	Size       Size  // block geometry
	Seed       int64 // deterministic randomness
	ScanEnable bool  // add the hidden MTJ_SE output-inversion layer
	KeyPrefix  string
}

// BlockInfo records one inserted RIL-Block. Gate references are by
// name (IDs change when the netlist is pruned).
type BlockInfo struct {
	Size      Size
	GateNames []string      // replaced gates, in block-output order
	GateFuncs []logic.Func2 // their original functions
	FaninA    []string      // first fanin wire name per gate
	FaninB    []string      // second fanin wire name per gate
	PortWire  []string      // input-port -> wire name (input routing); nil otherwise
	InKeyPos  []int         // key-vector positions of input banyan bits
	OutKeyPos []int         // key-vector positions of output banyan bits
	LUTKeyPos [][4]int      // key-vector positions of each LUT's table bits
	LUTOut    []string      // name of each LUT's output MUX
	SEIdx     []int         // index into Result.SEBits per LUT (nil without scan enable)
	InNetOut  []string      // input-banyan output line names (2K), nil without input routing
	OutNetOut []string      // output-banyan output line names (K), nil without output routing
}

// Result is a locked netlist plus the secrets the IP owner retains.
type Result struct {
	Locked      *netlist.Netlist // attacker's view: original + key inputs
	Key         []bool           // the correct key
	KeyNames    []string         // key input names, index-aligned with Key
	KeyInputPos []int            // positions of key inputs within Locked.Inputs
	Blocks      []BlockInfo
	ScanEnable  bool
	SEBits      []bool // hidden MTJ_SE contents, one per LUT (nil without scan enable)
}

// KeyBits returns the key length.
func (r *Result) KeyBits() int { return len(r.Key) }

// Lock inserts opt.Blocks RIL-Blocks of geometry opt.Size into a copy
// of the netlist. Gates are selected at random (paper §III-D: no
// insertion policy is required), subject only to the structural
// constraint that a block's tapped input wires must not depend on the
// block's own outputs (no combinational cycles).
func Lock(orig *netlist.Netlist, opt Options) (*Result, error) {
	if opt.Blocks < 1 {
		return nil, fmt.Errorf("core: Blocks must be >= 1")
	}
	if opt.Size.K < 1 || opt.Size.K&(opt.Size.K-1) != 0 {
		return nil, fmt.Errorf("core: block K=%d must be a power of two >= 1", opt.Size.K)
	}
	if opt.Size.K < 2 && opt.Size.OutputRouting {
		return nil, fmt.Errorf("core: output routing needs K >= 2")
	}
	prefix := opt.KeyPrefix
	if prefix == "" {
		prefix = "keyinput"
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	nl := orig.Clone()
	res := &Result{Locked: nl, ScanEnable: opt.ScanEnable}

	var replaced []bool // by gate ID: IDs hold until the Prune below
	for b := 0; b < opt.Blocks; b++ {
		gates, err := selectGates(nl, opt.Size.K, replaced, rng)
		if err != nil {
			return nil, fmt.Errorf("core: block %d: %w", b, err)
		}
		if err := insertBlock(res, nl, gates, opt.Size, prefix, opt.ScanEnable, rng); err != nil {
			return nil, fmt.Errorf("core: block %d: %w", b, err)
		}
		replaced = append(replaced, make([]bool, nl.NumGates()-len(replaced))...)
		for _, g := range gates {
			replaced[g] = true
		}
		renameTaps(res.Blocks)
	}
	nl.Prune()
	if err := nl.Validate(); err != nil {
		return nil, fmt.Errorf("core: locked netlist invalid: %w", err)
	}

	// Self-check: under the correct key the locked circuit must match
	// the original (random simulation; SAT equivalence is available in
	// the attack package for tests).
	bound, err := r0Apply(res)
	if err != nil {
		return nil, err
	}
	eq, cex, err := netlist.Equivalent(orig, bound, 12, 8, opt.Seed^0x5eed)
	if err != nil {
		return nil, err
	}
	if !eq {
		return nil, fmt.Errorf("core: internal error: locked circuit differs from original under correct key (cex %v)", cex)
	}
	return res, nil
}

// renameTaps points the earlier blocks' recorded wires away from the
// gates the last block replaced. An earlier block may tap such a gate;
// the last block's rewiring now feeds it from its output line, and
// Prune drops the gate. PortWire, FaninA and FaninB are renamed
// together, since Reconfigure matches them by name.
func renameTaps(blocks []BlockInfo) {
	last := blocks[len(blocks)-1]
	outs := last.LUTOut
	if last.OutNetOut != nil {
		outs = last.OutNetOut
	}
	rename := make(map[string]string, len(last.GateNames))
	for pos, name := range last.GateNames {
		rename[name] = outs[pos]
	}
	for _, blk := range blocks[:len(blocks)-1] {
		for _, wires := range [][]string{blk.PortWire, blk.FaninA, blk.FaninB} {
			for i, w := range wires {
				if to, ok := rename[w]; ok {
					wires[i] = to
				}
			}
		}
	}
}

func r0Apply(r *Result) (*netlist.Netlist, error) { return r.ApplyKey(r.Key) }

// ApplyKey specializes the locked netlist to a concrete key, returning
// a circuit with the original input signature.
func (r *Result) ApplyKey(key []bool) (*netlist.Netlist, error) {
	if len(key) != len(r.Key) {
		return nil, fmt.Errorf("core: key length %d, want %d", len(key), len(r.Key))
	}
	return r.Locked.BindInputs(r.KeyInputPos, key)
}

// ScanView returns the circuit the attacker actually observes through
// the scan chain: every LUT whose hidden MTJ_SE bit is 1 drives the
// inverted value when SE is asserted (paper §III-C). Without scan
// enable it is identical to the locked netlist.
func (r *Result) ScanView() (*netlist.Netlist, error) {
	if !r.ScanEnable {
		return r.Locked.Clone(), nil
	}
	c := r.Locked.Clone()
	for _, blk := range r.Blocks {
		for i, lutName := range blk.LUTOut {
			if !r.SEBits[blk.SEIdx[i]] {
				continue
			}
			id, ok := c.GateID(lutName)
			if !ok {
				return nil, fmt.Errorf("core: ScanView: missing LUT output %q", lutName)
			}
			inv := c.AddGate(c.FreshName(lutName+"_se"), netlist.Not, id)
			c.RedirectFanout(id, inv)
		}
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// selectGates picks k compatible 2-input gates at random: no selected
// gate's fanin may lie in the transitive fanout of another selected
// gate (this would close a combinational loop through the block).
func selectGates(nl *netlist.Netlist, k int, replaced []bool, rng *rand.Rand) ([]int, error) {
	var candidates []int
	for id := range nl.Gates {
		g := &nl.Gates[id]
		if len(g.Fanin) != 2 || id < len(replaced) && replaced[id] {
			continue
		}
		if _, ok := gateFunc2(g.Type); !ok {
			continue
		}
		candidates = append(candidates, id)
	}
	rng.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	fanouts := nl.FanoutLists()
	if sel := greedySelect(nl, fanouts, candidates, k); len(sel) == k {
		return sel, nil
	}

	// Fallback: gates at the same logic level are always mutually
	// compatible (a level-L gate's fanins sit below level L, while its
	// transitive fanout sits above), so re-order candidates by distance
	// from the level richest in candidates and retry.
	levels, _, err := nl.Levels()
	if err != nil {
		return nil, err
	}
	byLevel := map[int]int{}
	for _, c := range candidates {
		byLevel[levels[c]]++
	}
	pivot, best := 0, 0
	for lv, cnt := range byLevel {
		if cnt > best || (cnt == best && lv < pivot) {
			pivot, best = lv, cnt
		}
	}
	ordered := append([]int(nil), candidates...)
	dist := func(c int) int {
		d := levels[c] - pivot
		if d < 0 {
			return -d
		}
		return d
	}
	sortByKey(ordered, dist)
	if sel := greedySelect(nl, fanouts, ordered, k); len(sel) == k {
		return sel, nil
	}
	return nil, fmt.Errorf("%w: need %d", errNoCandidates, k)
}

// greedySelect keeps candidates compatible with all previously kept
// ones: no kept gate's fanin may lie in another kept gate's transitive
// fanout. fanouts is nl's FanoutLists.
//
// unionTFO, the union of the kept gates' cones, is closed under fanout
// and holds no kept gate's fanin. So a candidate's cone reaches a kept
// fanin only through gates outside it, and each candidate walks just
// the part of its cone that the union lacks.
func greedySelect(nl *netlist.Netlist, fanouts [][]int, candidates []int, k int) []int {
	var selected []int
	var fanins []int
	unionTFO := make([]bool, nl.NumGates())
	for _, cand := range candidates {
		if len(selected) == k {
			break
		}
		cf := nl.Gates[cand].Fanin
		if unionTFO[cf[0]] || unionTFO[cf[1]] || unionTFO[cand] {
			continue
		}
		added := netlist.MarkFanout(fanouts, unionTFO, cand)
		ok := true
		for _, f := range fanins {
			if unionTFO[f] {
				ok = false
				break
			}
		}
		if !ok {
			for _, id := range added {
				unionTFO[id] = false
			}
			continue
		}
		selected = append(selected, cand)
		fanins = append(fanins, cf[0], cf[1])
	}
	return selected
}

// sortByKey sorts ints ascending by an integer key (stable enough for
// deterministic behaviour given a deterministic input order).
func sortByKey(s []int, key func(int) int) {
	sort.SliceStable(s, func(i, j int) bool { return key(s[i]) < key(s[j]) })
}

// insertBlock builds one RIL-Block over the selected gates and rewires
// the netlist.
func insertBlock(res *Result, nl *netlist.Netlist, gates []int, size Size, prefix string, scanEnable bool, rng *rand.Rand) error {
	k := size.K
	blk := BlockInfo{Size: size}
	addKey := func(val bool) int {
		name := fmt.Sprintf("%s%d", prefix, len(res.Key))
		pos := len(nl.Inputs)
		nl.AddInput(name)
		res.Key = append(res.Key, val)
		res.KeyNames = append(res.KeyNames, name)
		res.KeyInputPos = append(res.KeyInputPos, pos)
		return nl.MustGateID(name)
	}

	// Record the replaced gates.
	funcs := make([]logic.Func2, k)
	faninA := make([]int, k)
	faninB := make([]int, k)
	for i, id := range gates {
		g := &nl.Gates[id]
		f, ok := gateFunc2(g.Type)
		if !ok {
			return fmt.Errorf("gate %q type %s not LUT-replaceable", g.Name, g.Type)
		}
		funcs[i] = f
		faninA[i] = g.Fanin[0]
		faninB[i] = g.Fanin[1]
		blk.GateNames = append(blk.GateNames, g.Name)
		blk.GateFuncs = append(blk.GateFuncs, f)
		blk.FaninA = append(blk.FaninA, nl.Gates[g.Fanin[0]].Name)
		blk.FaninB = append(blk.FaninB, nl.Gates[g.Fanin[1]].Name)
	}

	// Choose routing keys at random; the LUT contents compensate.
	var inKeys, outKeys []bool
	if size.InputRouting {
		inKeys = randomBits(rng, BanyanSwitchCount(2*k))
	}
	if size.OutputRouting {
		outKeys = randomBits(rng, BanyanSwitchCount(k))
	}
	landedIn := identityPerm(2 * k)
	if size.InputRouting {
		var err error
		landedIn, err = BanyanPermute(2*k, inKeys)
		if err != nil {
			return err
		}
	}
	landedOut := identityPerm(k)
	if size.OutputRouting {
		var err error
		landedOut, err = BanyanPermute(k, outKeys)
		if err != nil {
			return err
		}
	}

	// Assign wires to input ports so that, under the chosen routing
	// keys, LUT l receives exactly the fanin pair of the gate whose
	// output position routes from l.
	portWire := make([]int, 2*k) // port -> wire gate id
	lutFunc := make([]logic.Func2, k)
	lutGate := make([]int, k) // which original gate each LUT serves
	for pos := 0; pos < k; pos++ {
		l := landedOut[pos] // the LUT arriving at block output pos
		lutGate[l] = pos
		a, b := faninA[pos], faninB[pos]
		f := funcs[pos]
		if rng.Intn(2) == 1 { // randomize pin order for key diversity
			a, b = b, a
			f = f.SwapInputs()
		}
		portWire[landedIn[2*l]] = a
		portWire[landedIn[2*l+1]] = b
		lutFunc[l] = f
	}

	// Materialize key inputs: input banyan, output banyan, LUT tables.
	inKeyIDs := make([]int, len(inKeys))
	for i, v := range inKeys {
		blk.InKeyPos = append(blk.InKeyPos, len(res.Key))
		inKeyIDs[i] = addKey(v)
	}
	outKeyIDs := make([]int, len(outKeys))
	for i, v := range outKeys {
		blk.OutKeyPos = append(blk.OutKeyPos, len(res.Key))
		outKeyIDs[i] = addKey(v)
	}
	lutKeyIDs := make([][4]int, k)
	for l := 0; l < k; l++ {
		bits := lutKeyBits(lutFunc[l])
		var pos [4]int
		var ids [4]int
		for j := 0; j < 4; j++ {
			pos[j] = len(res.Key)
			ids[j] = addKey(bits[j])
		}
		blk.LUTKeyPos = append(blk.LUTKeyPos, pos)
		lutKeyIDs[l] = ids
	}

	// Build the datapath.
	lines := make([]int, 2*k)
	copy(lines, portWire)
	if size.InputRouting {
		var err error
		lines, err = buildBanyan(nl, "rin", lines, inKeyIDs)
		if err != nil {
			return err
		}
		for _, id := range lines {
			blk.InNetOut = append(blk.InNetOut, nl.Gates[id].Name)
		}
	}
	lutOuts := make([]int, k)
	for l := 0; l < k; l++ {
		lutOuts[l] = buildLUT2(nl, fmt.Sprintf("lut%d", len(res.SEBits)+l), lines[2*l], lines[2*l+1], lutKeyIDs[l])
		blk.LUTOut = append(blk.LUTOut, nl.Gates[lutOuts[l]].Name)
	}
	outs := lutOuts
	if size.OutputRouting {
		var err error
		outs, err = buildBanyan(nl, "rout", outs, outKeyIDs)
		if err != nil {
			return err
		}
		for _, id := range outs {
			blk.OutNetOut = append(blk.OutNetOut, nl.Gates[id].Name)
		}
	}
	// One pass moves every reader of a replaced gate to the block
	// output that now computes it.
	to := make([]int, slices.Max(gates)+1)
	for pos, id := range gates {
		to[id] = outs[pos]
	}
	nl.RedirectFanouts(to)

	// Hidden scan-enable bits.
	if scanEnable {
		for l := 0; l < k; l++ {
			blk.SEIdx = append(blk.SEIdx, len(res.SEBits))
			res.SEBits = append(res.SEBits, rng.Intn(2) == 1)
		}
	}

	// Input-port wire names for later reconfiguration (recorded for all
	// geometries: without input routing port 2l/2l+1 feed LUT l
	// directly, in whatever pin order the lock chose).
	for _, w := range portWire {
		blk.PortWire = append(blk.PortWire, nl.Gates[w].Name)
	}
	res.Blocks = append(res.Blocks, blk)
	return nil
}

func randomBits(rng *rand.Rand, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = rng.Intn(2) == 1
	}
	return out
}

func identityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}
