package baselines

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/netlint"
	"repro/internal/netlist"
)

// Params are the lock parameters a scheme reads: cmd/locker's flags
// and rild's lock spec carry the same set. Each scheme ignores the
// ones it has no use for.
type Params struct {
	Size    string // RIL-Block geometry, e.g. "8x8x8" (ril)
	Blocks  int    // RIL blocks, LUTs or MESO gates (ril, lut, meso)
	KeyBits int    // key width (xor, sarlock, antisat, sfll, caslock)
	HD      int    // SFLL Hamming distance h (sfll)
	Seed    int64  // deterministic lock randomness
	Scan    bool   // scan-enable obfuscation (ril)
}

// schemes is the lock-scheme table: RIL-Blocks and the seven baselines
// under the names the command line and rild accept, in help order.
var schemes = []struct {
	name string
	lock func(orig *netlist.Netlist, p Params) (*Locked, error)
}{
	{"ril", lockRIL},
	{"lut", func(o *netlist.Netlist, p Params) (*Locked, error) { return LUTLock(o, p.Blocks, p.Seed) }},
	{"xor", func(o *netlist.Netlist, p Params) (*Locked, error) { return XORLock(o, p.KeyBits, p.Seed) }},
	{"sarlock", func(o *netlist.Netlist, p Params) (*Locked, error) { return SARLock(o, p.KeyBits, p.Seed) }},
	{"antisat", func(o *netlist.Netlist, p Params) (*Locked, error) { return AntiSAT(o, p.KeyBits, p.Seed) }},
	{"sfll", func(o *netlist.Netlist, p Params) (*Locked, error) { return SFLLHD(o, p.KeyBits, p.HD, p.Seed) }},
	{"caslock", func(o *netlist.Netlist, p Params) (*Locked, error) { return CASLock(o, p.KeyBits, p.Seed) }},
	{"meso", func(o *netlist.Netlist, p Params) (*Locked, error) { return MESOLock(o, p.Blocks, p.Seed) }},
}

// SchemeNames lists the lock-scheme table's names in table order.
func SchemeNames() []string {
	names := make([]string, len(schemes))
	for i, s := range schemes {
		names[i] = s.name
	}
	return names
}

// LockScheme locks orig with the named scheme of the table. Besides
// the lock it returns the netlint options the emit gate runs the
// hygiene analyzers with: the correct key by input name, and for ril
// the key scan chain.
func LockScheme(scheme string, orig *netlist.Netlist, p Params) (*Locked, netlint.Options, error) {
	for _, s := range schemes {
		if s.name != scheme {
			continue
		}
		l, err := s.lock(orig, p)
		if err != nil {
			return nil, netlint.Options{}, err
		}
		opts := netlint.Options{Key: make(map[string]bool, len(l.Key)), Scan: l.scan}
		for i, pos := range l.KeyPos {
			opts.Key[l.Netlist.Gates[l.Netlist.Inputs[pos]].Name] = l.Key[i]
		}
		return l, opts, nil
	}
	return nil, netlint.Options{}, fmt.Errorf("unknown scheme %q", scheme)
}

// lockRIL inserts RIL-Blocks, the paper's scheme.
func lockRIL(orig *netlist.Netlist, p Params) (*Locked, error) {
	size, err := core.ParseSize(p.Size)
	if err != nil {
		return nil, err
	}
	res, err := core.Lock(orig, core.Options{
		Blocks: p.Blocks, Size: size, Seed: p.Seed, ScanEnable: p.Scan,
	})
	if err != nil {
		return nil, err
	}
	return &Locked{
		Scheme:  "ril",
		Netlist: res.Locked,
		KeyPos:  res.KeyInputPos,
		Key:     res.Key,
		Note:    res.Overhead().String(),
		scan: &netlint.ScanSpec{Chains: []netlint.ScanChainSpec{{
			Name:     "keychain",
			Width:    core.NewKeyChain(res).Len(),
			Cells:    res.KeyNames,
			KeyChain: true,
		}}},
	}, nil
}
