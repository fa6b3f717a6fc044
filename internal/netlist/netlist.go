// Package netlist implements a gate-level combinational netlist: the
// common representation shared by the benchmark synthesizers, the
// obfuscation transforms, the CNF encoder and the oracle simulator.
//
// A Netlist is a DAG of named gates. Primary inputs are gates of type
// Input with no fanin; any gate may additionally be designated a
// primary output. Sequential benchmarks are handled by scan conversion
// (DFF outputs become pseudo primary inputs, DFF data pins become
// pseudo primary outputs), matching the full-scan threat model used by
// the SAT-attack literature.
package netlist

import (
	"fmt"
	"sort"
	"strconv"
)

// GateType enumerates the supported gate functions.
type GateType uint8

// Gate types. N-ary gates (And..Xnor) accept two or more fanins; Not
// and Buf take exactly one; Mux takes exactly three (select, a, b) and
// outputs a when select=0, b when select=1. Input gates take none.
const (
	Input GateType = iota
	And
	Nand
	Or
	Nor
	Xor
	Xnor
	Not
	Buf
	Mux
	Const0
	Const1
	numGateTypes
)

var gateNames = [...]string{
	Input: "INPUT", And: "AND", Nand: "NAND", Or: "OR", Nor: "NOR",
	Xor: "XOR", Xnor: "XNOR", Not: "NOT", Buf: "BUF", Mux: "MUX",
	Const0: "CONST0", Const1: "CONST1",
}

func (t GateType) String() string {
	if int(t) < len(gateNames) {
		return gateNames[t]
	}
	return fmt.Sprintf("GateType(%d)", uint8(t))
}

// ArityOK reports whether n fanins is legal for the gate type.
func (t GateType) ArityOK(n int) bool {
	switch t {
	case Input, Const0, Const1:
		return n == 0
	case Not, Buf:
		return n == 1
	case Mux:
		return n == 3
	default:
		return n >= 2
	}
}

// Gate is one node of the netlist DAG.
type Gate struct {
	Name  string
	Type  GateType
	Fanin []int // gate IDs, ordered (order matters for Mux); cap == len
}

// Netlist is a named combinational circuit.
//
// AddGate, SetFanin and Clone give every gate a Fanin slice of its own
// whose capacity equals its length, carved from a backing array the
// netlist owns: appending to one gate's Fanin reallocates it rather
// than writing into the next gate's. byName indexes the gates that
// AddGate and AddInput add.
type Netlist struct {
	Name    string
	Gates   []Gate
	Inputs  []int // gate IDs of primary inputs, in declaration order
	Outputs []int // gate IDs of primary outputs, in declaration order

	byName map[string]int
	fanins []int // free tail of the backing array for new gates' fanin
}

// New returns an empty netlist with the given name.
func New(name string) *Netlist {
	return &Netlist{Name: name, byName: make(map[string]int)}
}

// NumGates returns the total number of gates including inputs.
func (n *Netlist) NumGates() int { return len(n.Gates) }

// NumLogicGates returns the number of gates excluding primary inputs
// and constants.
func (n *Netlist) NumLogicGates() int {
	c := 0
	for i := range n.Gates {
		switch n.Gates[i].Type {
		case Input, Const0, Const1:
		default:
			c++
		}
	}
	return c
}

// GateID returns the ID of the named gate and whether it exists.
func (n *Netlist) GateID(name string) (int, bool) {
	id, ok := n.byName[name]
	return id, ok
}

// MustGateID returns the ID of the named gate, panicking if absent.
func (n *Netlist) MustGateID(name string) int {
	id, ok := n.byName[name]
	if !ok {
		panic(fmt.Sprintf("netlist %q: no gate named %q", n.Name, name))
	}
	return id
}

// AddInput declares a new primary input and returns its gate ID.
func (n *Netlist) AddInput(name string) int {
	id := n.addGate(name, Input, nil)
	n.Inputs = append(n.Inputs, id)
	return id
}

// AddGate adds a logic gate and returns its ID. The fanin IDs must
// already exist; arity is validated. The gate keeps a copy of fanin.
func (n *Netlist) AddGate(name string, t GateType, fanin ...int) int {
	if !t.ArityOK(len(fanin)) {
		panic(fmt.Sprintf("netlist %q: gate %q type %s cannot take %d fanins",
			n.Name, name, t, len(fanin)))
	}
	for _, f := range fanin {
		if f < 0 || f >= len(n.Gates) {
			panic(fmt.Sprintf("netlist %q: gate %q references unknown fanin %d", n.Name, name, f))
		}
	}
	return n.addGate(name, t, fanin)
}

func (n *Netlist) addGate(name string, t GateType, fanin []int) int {
	id := len(n.Gates)
	// One hash per name: an insert that does not grow the index hit a
	// name already there, and the first gate of that name gets its
	// entry back before the panic.
	size := len(n.byName)
	n.byName[name] = id
	if len(n.byName) == size {
		for i := range n.Gates {
			if n.Gates[i].Name == name {
				n.byName[name] = i
				break
			}
		}
		panic(fmt.Sprintf("netlist %q: duplicate gate name %q", n.Name, name))
	}
	n.Gates = append(n.Gates, Gate{Name: name, Type: t, Fanin: n.ownFanin(fanin)})
	return id
}

// ownFanin copies fanin into the netlist's backing array and returns
// the copy, its capacity clipped to its length. A full array is left
// to the gates already pointing into it, and a new one twice its size
// (at least 64) takes its place.
func (n *Netlist) ownFanin(fanin []int) []int {
	if len(fanin) == 0 {
		return nil
	}
	if cap(n.fanins)-len(n.fanins) < len(fanin) {
		n.fanins = make([]int, 0, max(2*cap(n.fanins), 64, len(fanin)))
	}
	start := len(n.fanins)
	n.fanins = append(n.fanins, fanin...)
	return n.fanins[start:len(n.fanins):len(n.fanins)]
}

// MarkOutput designates an existing gate as a primary output.
func (n *Netlist) MarkOutput(id int) {
	if id < 0 || id >= len(n.Gates) {
		panic(fmt.Sprintf("netlist %q: MarkOutput of unknown gate %d", n.Name, id))
	}
	n.Outputs = append(n.Outputs, id)
}

// FreshName returns a gate name with the given prefix that does not
// collide with any existing gate.
func (n *Netlist) FreshName(prefix string) string {
	//rilvet:ignore ctx-loop terminates within len(n.Gates)+1 probes — gate names are unique, so some counter value in that range is always free
	for i := len(n.Gates); ; i++ {
		name := prefix + "_" + strconv.Itoa(i)
		if _, ok := n.byName[name]; !ok {
			return name
		}
	}
}

// Clone returns a deep copy of the netlist. The copy's fanin lists
// share one new backing array and none of the original's storage.
func (n *Netlist) Clone() *Netlist {
	total := 0
	for i := range n.Gates {
		total += len(n.Gates[i].Fanin)
	}
	c := &Netlist{
		Name:    n.Name,
		Gates:   make([]Gate, len(n.Gates)),
		Inputs:  append([]int(nil), n.Inputs...),
		Outputs: append([]int(nil), n.Outputs...),
		byName:  make(map[string]int, len(n.byName)),
		fanins:  make([]int, 0, total),
	}
	for i, g := range n.Gates {
		c.Gates[i] = Gate{Name: g.Name, Type: g.Type, Fanin: c.ownFanin(g.Fanin)}
		c.byName[g.Name] = i
	}
	// The copied fanin fills its array exactly. Gates added to the clone
	// start a small array of their own rather than one twice the size
	// of the whole circuit's fanin.
	c.fanins = nil
	return c
}

// RedirectFanout rewires every gate that reads from oldID to read from
// newID instead, and transfers primary-output markings. It is the core
// primitive of gate replacement during obfuscation. The old gate itself
// is left in place (possibly dangling); call Prune to drop dead logic.
func (n *Netlist) RedirectFanout(oldID, newID int) {
	for i := range n.Gates {
		if i == newID {
			continue // avoid creating a self-loop on the replacement
		}
		fin := n.Gates[i].Fanin
		for j, f := range fin {
			if f == oldID {
				fin[j] = newID
			}
		}
	}
	for i, o := range n.Outputs {
		if o == oldID {
			n.Outputs[i] = newID
		}
	}
}

// RedirectFanouts is RedirectFanout for many gates in one pass: every
// gate that reads a gate id with to[id] != 0 reads to[id] instead, and
// output marks move likewise. A zero entry, or an id past the end of
// to, leaves that gate's readers alone, so gate 0 cannot be a
// replacement. As in RedirectFanout, a replacement never gets rewired
// to read itself.
func (n *Netlist) RedirectFanouts(to []int) {
	for i := range n.Gates {
		fin := n.Gates[i].Fanin
		for j, f := range fin {
			if f < len(to) && to[f] != 0 && to[f] != i {
				fin[j] = to[f]
			}
		}
	}
	for i, o := range n.Outputs {
		if o < len(to) && to[o] != 0 {
			n.Outputs[i] = to[o]
		}
	}
}

// SetFanin replaces the fanin list of a gate (arity checked) with a
// copy of fanin.
func (n *Netlist) SetFanin(id int, fanin ...int) {
	g := &n.Gates[id]
	if !g.Type.ArityOK(len(fanin)) {
		panic(fmt.Sprintf("netlist %q: gate %q type %s cannot take %d fanins",
			n.Name, g.Name, g.Type, len(fanin)))
	}
	g.Fanin = n.ownFanin(fanin)
}

// Validate checks structural invariants: unique names, legal arities,
// existing fanin references, inputs truly of type Input, acyclicity.
func (n *Netlist) Validate() error {
	// Names AddGate indexed are unique: each maps to its own gate. Only
	// when a gate is missing from the index (appended to Gates directly,
	// or renamed) are the names checked against a map of their own.
	for i := range n.Gates {
		if id, ok := n.byName[n.Gates[i].Name]; !ok || id != i {
			if err := n.uniqueNames(); err != nil {
				return err
			}
			break
		}
	}
	for _, g := range n.Gates {
		if !g.Type.ArityOK(len(g.Fanin)) {
			return fmt.Errorf("netlist %q: gate %q (%s) has illegal arity %d", n.Name, g.Name, g.Type, len(g.Fanin))
		}
		for _, f := range g.Fanin {
			if f < 0 || f >= len(n.Gates) {
				return fmt.Errorf("netlist %q: gate %q references missing fanin %d", n.Name, g.Name, f)
			}
		}
	}
	for _, id := range n.Inputs {
		if id < 0 || id >= len(n.Gates) || n.Gates[id].Type != Input {
			return fmt.Errorf("netlist %q: input list entry %d is not an Input gate", n.Name, id)
		}
	}
	for _, id := range n.Outputs {
		if id < 0 || id >= len(n.Gates) {
			return fmt.Errorf("netlist %q: output list references missing gate %d", n.Name, id)
		}
	}
	if _, err := n.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// uniqueNames reports the first two gates that share a name.
func (n *Netlist) uniqueNames() error {
	seen := make(map[string]int, len(n.Gates))
	for i, g := range n.Gates {
		if j, dup := seen[g.Name]; dup {
			return fmt.Errorf("netlist %q: gates %d and %d share name %q", n.Name, j, i, g.Name)
		}
		seen[g.Name] = i
	}
	return nil
}

// Prune removes gates that cannot reach any primary output, compacting
// IDs. Primary inputs are always retained (their positions define the
// input vector layout). It returns the number of gates removed.
func (n *Netlist) Prune() int {
	live := make([]bool, len(n.Gates))
	stack := append([]int(nil), n.Outputs...)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if live[id] {
			continue
		}
		live[id] = true
		stack = append(stack, n.Gates[id].Fanin...)
	}
	for _, id := range n.Inputs {
		live[id] = true
	}
	remap := make([]int, len(n.Gates))
	var kept []Gate
	for i, g := range n.Gates {
		if live[i] {
			remap[i] = len(kept)
			kept = append(kept, g)
		} else {
			remap[i] = -1
		}
	}
	removed := len(n.Gates) - len(kept)
	if removed == 0 {
		return 0
	}
	n.Gates = kept
	n.byName = make(map[string]int, len(kept))
	for i := range n.Gates {
		g := &n.Gates[i]
		n.byName[g.Name] = i
		for j, f := range g.Fanin {
			g.Fanin[j] = remap[f]
		}
	}
	for i, id := range n.Inputs {
		n.Inputs[i] = remap[id]
	}
	for i, id := range n.Outputs {
		n.Outputs[i] = remap[id]
	}
	return removed
}

// GateIDsByPrefix returns the sorted positions (within n.Inputs) of
// inputs whose names start with the prefix. Used to locate key inputs.
func (n *Netlist) GateIDsByPrefix(prefix string) []int {
	var idx []int
	for i, id := range n.Inputs {
		name := n.Gates[id].Name
		if len(name) >= len(prefix) && name[:len(prefix)] == prefix {
			idx = append(idx, i)
		}
	}
	sort.Ints(idx)
	return idx
}
