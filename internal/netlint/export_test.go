package netlint

import (
	"slices"

	"repro/internal/netlist"
)

// HashedCofactors encodes the cofactors of nl that bind the inputs at
// positions pos to a and to b as key-const-prop does, into one
// structural hasher. It reports whether their output literals
// coincide, the structural proof, and how many distinct primary-output
// gates each folds to constants.
func HashedCofactors(nl *netlist.Netlist, pos []int, a, b []bool) (equal bool, constA, constB int, err error) {
	c := (&Pass{Netlist: nl}).cofactors(pos...)
	oa, err := c.outputs(a)
	if err != nil {
		return false, 0, 0, err
	}
	ob, err := c.outputs(b)
	if err != nil {
		return false, 0, 0, err
	}
	return slices.Equal(oa, ob), constOutputs(nl, oa), constOutputs(nl, ob), nil
}
