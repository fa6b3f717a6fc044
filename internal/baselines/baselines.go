// Package baselines implements the locking schemes the paper compares
// RIL-Blocks against (Table V): random XOR/XNOR locking, the one-point
// function family (SARLock, Anti-SAT, SFLL-HD, CAS-Lock), plain
// LUT-based locking [12], and the two encodings of a polymorphic
// (MESO-style) gate from Fig. 1.
//
// Every scheme returns a Locked bundle with the transformed netlist,
// the key-input positions and the correct key, and self-checks that
// the correct key restores the original function.
package baselines

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/netlint"
	"repro/internal/netlist"
)

// Locked is a uniformly-shaped locking result.
type Locked struct {
	Scheme  string
	Netlist *netlist.Netlist
	KeyPos  []int  // positions of key inputs within Netlist.Inputs
	Key     []bool // the correct key
	// Note is a one-line resource summary; only ril sets it.
	Note string
	// scan is the key scan chain the netlint emit gate checks (ril).
	scan *netlint.ScanSpec
}

// KeyBits returns the key length.
func (l *Locked) KeyBits() int { return len(l.Key) }

// selfCheck validates that the correct key restores the original.
func selfCheck(orig *netlist.Netlist, l *Locked, seed int64) (*Locked, error) {
	bound, err := l.Netlist.BindInputs(l.KeyPos, l.Key)
	if err != nil {
		return nil, err
	}
	eq, cex, err := netlist.Equivalent(orig, bound, 12, 8, seed)
	if err != nil {
		return nil, err
	}
	if !eq {
		return nil, fmt.Errorf("baselines: %s: correct key does not restore function (cex %v)", l.Scheme, cex)
	}
	return l, nil
}

// addKeyInput appends a key input and records its position and value.
func (l *Locked) addKeyInput(nl *netlist.Netlist, val bool) int {
	name := fmt.Sprintf("keyinput%d", len(l.Key))
	l.KeyPos = append(l.KeyPos, len(nl.Inputs))
	id := nl.AddInput(name)
	l.Key = append(l.Key, val)
	return id
}

// XORLock inserts nKeys key-controlled XOR/XNOR gates on random wires
// (EPIC-style random logic locking — the classic baseline the SAT
// attack was built to break).
func XORLock(orig *netlist.Netlist, nKeys int, seed int64) (*Locked, error) {
	if nKeys < 1 {
		return nil, fmt.Errorf("baselines: nKeys must be >= 1")
	}
	nl := orig.Clone()
	rng := rand.New(rand.NewSource(seed))
	l := &Locked{Scheme: "xor", Netlist: nl}
	var cands []int
	for id := range nl.Gates {
		if nl.Gates[id].Type != netlist.Input {
			cands = append(cands, id)
		}
	}
	if len(cands) < nKeys {
		return nil, fmt.Errorf("baselines: circuit too small for %d key gates", nKeys)
	}
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	for i := 0; i < nKeys; i++ {
		wire := cands[i]
		bit := rng.Intn(2) == 1
		kid := l.addKeyInput(nl, bit)
		t := netlist.Xor // transparent with key=0
		if bit {
			t = netlist.Xnor // transparent with key=1
		}
		g := nl.AddGate(nl.FreshName(fmt.Sprintf("klk%d", i)), t, wire, kid)
		nl.RedirectFanout(wire, g)
	}
	if err := nl.Validate(); err != nil {
		return nil, err
	}
	return selfCheck(orig, l, seed)
}

// LUTLock replaces nLUTs random 2-input gates with 2-input LUTs — the
// plain LUT-based obfuscation of [12], without any routing network. It
// is implemented as RIL-Blocks of geometry lut1 (K=1, no routing).
func LUTLock(orig *netlist.Netlist, nLUTs int, seed int64) (*Locked, error) {
	res, err := core.Lock(orig, core.Options{
		Blocks: nLUTs,
		Size:   core.Size{K: 1},
		Seed:   seed,
	})
	if err != nil {
		return nil, err
	}
	return &Locked{
		Scheme:  "lut",
		Netlist: res.Locked,
		KeyPos:  res.KeyInputPos,
		Key:     res.Key,
	}, nil
}
