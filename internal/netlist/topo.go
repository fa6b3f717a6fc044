package netlist

import "fmt"

// TopoOrder returns a topological ordering of gate IDs (every gate
// appears after all of its fanins) or an error if the netlist contains
// a combinational cycle.
func (n *Netlist) TopoOrder() ([]int, error) {
	const (
		white = 0 // unvisited
		grey  = 1 // on stack
		black = 2 // done
	)
	state := make([]uint8, len(n.Gates))
	order := make([]int, 0, len(n.Gates))

	// Iterative DFS to survive deep circuits.
	type frame struct {
		id   int
		next int
	}
	var stack []frame
	for root := range n.Gates {
		if state[root] != white {
			continue
		}
		stack = append(stack[:0], frame{id: root})
		state[root] = grey
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			fin := n.Gates[f.id].Fanin
			if f.next < len(fin) {
				child := fin[f.next]
				f.next++
				switch state[child] {
				case white:
					state[child] = grey
					stack = append(stack, frame{id: child})
				case grey:
					return nil, fmt.Errorf("netlist %q: combinational cycle through gate %q",
						n.Name, n.Gates[child].Name)
				}
				continue
			}
			state[f.id] = black
			order = append(order, f.id)
			stack = stack[:len(stack)-1]
		}
	}
	return order, nil
}

// Levels returns, for each gate, its logic level: inputs and constants
// are level 0; every other gate is 1 + max(level of fanins). The second
// return value is the circuit depth (maximum level).
func (n *Netlist) Levels() ([]int, int, error) {
	order, err := n.TopoOrder()
	if err != nil {
		return nil, 0, err
	}
	lv := make([]int, len(n.Gates))
	depth := 0
	for _, id := range order {
		g := &n.Gates[id]
		if len(g.Fanin) == 0 {
			lv[id] = 0
			continue
		}
		m := 0
		for _, f := range g.Fanin {
			if lv[f] > m {
				m = lv[f]
			}
		}
		lv[id] = m + 1
		if lv[id] > depth {
			depth = lv[id]
		}
	}
	return lv, depth, nil
}

// FanoutLists returns, for each gate, the IDs of the gates that read
// it, in ascending order (a gate that reads it twice appears twice).
// The lists share one backing array, each clipped to its length.
func (n *Netlist) FanoutLists() [][]int {
	start := make([]int, len(n.Gates)+1)
	for i := range n.Gates {
		for _, f := range n.Gates[i].Fanin {
			start[f+1]++
		}
	}
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	all := make([]int, start[len(n.Gates)])
	out := make([][]int, len(n.Gates))
	for id := range out {
		out[id] = all[start[id]:start[id]:start[id+1]]
	}
	for i := range n.Gates {
		for _, f := range n.Gates[i].Fanin {
			out[f] = append(out[f], i)
		}
	}
	return out
}

// TransitiveFanin returns the set of gate IDs (as a boolean mask) in
// the transitive fanin cone of the given gates, including themselves.
func (n *Netlist) TransitiveFanin(roots ...int) []bool {
	mask := make([]bool, len(n.Gates))
	stack := append([]int(nil), roots...)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if mask[id] {
			continue
		}
		mask[id] = true
		stack = append(stack, n.Gates[id].Fanin...)
	}
	return mask
}

// FanoutCone returns the set of gate IDs (as a boolean mask) in the
// transitive fanout cone of the given gates, including themselves,
// walking fanouts, the netlist's FanoutLists. A caller that walks many
// cones builds the lists once.
func FanoutCone(fanouts [][]int, roots ...int) []bool {
	mask := make([]bool, len(fanouts))
	MarkFanout(fanouts, mask, roots...)
	return mask
}

// MarkFanout adds the transitive fanout cone of the roots to mask and
// returns the gates it added. It does not walk past a gate the mask
// already holds, so on a mask closed under fanout, such as a union of
// cones, a walk costs only the new part of the cone.
func MarkFanout(fanouts [][]int, mask []bool, roots ...int) []int {
	var added []int
	stack := append([]int(nil), roots...)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if mask[id] {
			continue
		}
		mask[id] = true
		added = append(added, id)
		stack = append(stack, fanouts[id]...)
	}
	return added
}
