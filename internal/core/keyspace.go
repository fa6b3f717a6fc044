package core

import "math/big"

// LUTFunctionSpace returns 2^(2^m), the function count of an m-input
// LUT (the paper's key-search-space argument for LUT-based
// obfuscation).
func LUTFunctionSpace(m int) *big.Int {
	return new(big.Int).Lsh(big.NewInt(1), 1<<uint(m))
}
