package attack

import (
	"fmt"
	"strings"

	"repro/internal/netlist"
)

// Target is a locked netlist ready to attack, with the oracle the
// threat model grants: the locked circuit activated by its correct
// key.
type Target struct {
	Locked *netlist.Netlist
	KeyPos []int  // positions of the key inputs within Locked.Inputs
	Key    []bool // the correct key, ordered as KeyPos
	Oracle *SimOracle
}

// LoadTarget parses a locked .bench text and its key-file text
// (netlist.ParseKey) into an attack target. The key inputs are the
// inputs whose names start with prefix. benchName names the netlist,
// which journal headers record; keyName labels key-file errors.
func LoadTarget(benchName, bench, keyName, key, prefix string) (*Target, error) {
	locked, err := netlist.ParseBench(benchName, strings.NewReader(bench))
	if err != nil {
		return nil, err
	}
	keyPos := locked.GateIDsByPrefix(prefix)
	if len(keyPos) == 0 {
		return nil, fmt.Errorf("no key inputs with prefix %q", prefix)
	}
	byName, err := netlist.ParseKey(keyName, key)
	if err != nil {
		return nil, err
	}
	bits, err := locked.KeyFromNames(keyPos, byName)
	if err != nil {
		return nil, err
	}
	bound, err := locked.BindInputs(keyPos, bits)
	if err != nil {
		return nil, err
	}
	oracle, err := NewSimOracle(bound)
	if err != nil {
		return nil, err
	}
	return &Target{Locked: locked, KeyPos: keyPos, Key: bits, Oracle: oracle}, nil
}
