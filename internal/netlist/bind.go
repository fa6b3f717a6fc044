package netlist

import (
	"errors"
	"fmt"
	"strings"
)

// BindInputs returns a copy of the netlist with the primary inputs at
// the given positions replaced by constants. The bound inputs are
// removed from the input list (remaining inputs keep their relative
// order), so the result takes a shorter input vector. Obfuscation code
// uses this to specialize a locked netlist to a concrete key.
func (n *Netlist) BindInputs(positions []int, values []bool) (*Netlist, error) {
	if len(positions) != len(values) {
		return nil, fmt.Errorf("netlist: BindInputs got %d positions, %d values", len(positions), len(values))
	}
	c := n.Clone()
	bound := make([]bool, len(c.Inputs))
	constOf := make([]int, len(c.Gates)) // bound input's gate ID -> its constant; 0 = not bound
	for i, pos := range positions {
		if pos < 0 || pos >= len(c.Inputs) {
			return nil, fmt.Errorf("netlist: BindInputs position %d out of range", pos)
		}
		if bound[pos] {
			return nil, fmt.Errorf("netlist: BindInputs duplicate position %d", pos)
		}
		bound[pos] = true
		id := c.Inputs[pos]
		t := Const0
		if values[i] {
			t = Const1
		}
		constOf[id] = c.addGate(c.FreshName(c.Gates[id].Name+"_bound"), t, nil)
	}
	c.RedirectFanouts(constOf)
	kept := c.Inputs[:0]
	for pos, id := range c.Inputs {
		if !bound[pos] {
			kept = append(kept, id)
		}
	}
	c.Inputs = kept
	c.Prune()
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// The key file is the activation of a locked netlist: one name=bit
// line per key input, bit 0 or 1, in any order. Blank lines and lines
// starting with '#' are skipped; space around the name and the bit is
// ignored. The three functions below are its only reader and writer.

// ParseKey reads key-file text into a map from key-input name to bit.
// It rejects a line without exactly one '=', an empty name, a bit
// other than 0 or 1 and a name given twice, and names the line. name
// labels the errors, as ParseBench's name does.
func ParseKey(name, text string) (map[string]bool, error) {
	key := map[string]bool{}
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		k, bit, ok := strings.Cut(line, "=")
		k, bit = strings.TrimSpace(k), strings.TrimSpace(bit)
		_, dup := key[k]
		var err error
		switch {
		case !ok || strings.Contains(bit, "="):
			err = fmt.Errorf("want name=bit, got %q", line)
		case k == "":
			err = errors.New("empty name")
		case bit != "0" && bit != "1":
			err = fmt.Errorf("bit %q is not 0 or 1", bit)
		case dup:
			err = fmt.Errorf("%q given twice", k)
		}
		if err != nil {
			return nil, fmt.Errorf("key %s line %d: %w", name, i+1, err)
		}
		key[k] = bit == "1"
	}
	return key, nil
}

// KeyFromNames orders a parsed key file by key position: bit i is the
// line of the input at keyPos[i]. Every key input needs a line; lines
// naming other inputs are ignored.
func (n *Netlist) KeyFromNames(keyPos []int, byName map[string]bool) ([]bool, error) {
	key := make([]bool, len(keyPos))
	for i, pos := range keyPos {
		name := n.Gates[n.Inputs[pos]].Name
		v, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("key has no line for %q", name)
		}
		key[i] = v
	}
	return key, nil
}

// KeyLines renders key as key-file lines, name=bit for the input at
// each of keyPos in order, without line terminators.
func (n *Netlist) KeyLines(keyPos []int, key []bool) []string {
	lines := make([]string, len(keyPos))
	for i, pos := range keyPos {
		bit := "0"
		if key[i] {
			bit = "1"
		}
		lines[i] = n.Gates[n.Inputs[pos]].Name + "=" + bit
	}
	return lines
}
