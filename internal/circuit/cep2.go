package circuit

import (
	"fmt"

	"repro/internal/netlist"
)

// ---------------------------------------------------------------------------
// DES round (the CEP suite carries a triple-DES core; one Feistel round
// exercises the same structure: expansion, key mixing, S-boxes, P-box).

// desSBoxes are the eight standard DES S-boxes (FIPS 46-3), each
// indexed by the 6-bit value b5 b0 selecting the row (b5,b0) and the
// column (b4..b1).
var desSBoxes = [8][64]byte{
	{14, 4, 13, 1, 2, 15, 11, 8, 3, 10, 6, 12, 5, 9, 0, 7,
		0, 15, 7, 4, 14, 2, 13, 1, 10, 6, 12, 11, 9, 5, 3, 8,
		4, 1, 14, 8, 13, 6, 2, 11, 15, 12, 9, 7, 3, 10, 5, 0,
		15, 12, 8, 2, 4, 9, 1, 7, 5, 11, 3, 14, 10, 0, 6, 13},
	{15, 1, 8, 14, 6, 11, 3, 4, 9, 7, 2, 13, 12, 0, 5, 10,
		3, 13, 4, 7, 15, 2, 8, 14, 12, 0, 1, 10, 6, 9, 11, 5,
		0, 14, 7, 11, 10, 4, 13, 1, 5, 8, 12, 6, 9, 3, 2, 15,
		13, 8, 10, 1, 3, 15, 4, 2, 11, 6, 7, 12, 0, 5, 14, 9},
	{10, 0, 9, 14, 6, 3, 15, 5, 1, 13, 12, 7, 11, 4, 2, 8,
		13, 7, 0, 9, 3, 4, 6, 10, 2, 8, 5, 14, 12, 11, 15, 1,
		13, 6, 4, 9, 8, 15, 3, 0, 11, 1, 2, 12, 5, 10, 14, 7,
		1, 10, 13, 0, 6, 9, 8, 7, 4, 15, 14, 3, 11, 5, 2, 12},
	{7, 13, 14, 3, 0, 6, 9, 10, 1, 2, 8, 5, 11, 12, 4, 15,
		13, 8, 11, 5, 6, 15, 0, 3, 4, 7, 2, 12, 1, 10, 14, 9,
		10, 6, 9, 0, 12, 11, 7, 13, 15, 1, 3, 14, 5, 2, 8, 4,
		3, 15, 0, 6, 10, 1, 13, 8, 9, 4, 5, 11, 12, 7, 2, 14},
	{2, 12, 4, 1, 7, 10, 11, 6, 8, 5, 3, 15, 13, 0, 14, 9,
		14, 11, 2, 12, 4, 7, 13, 1, 5, 0, 15, 10, 3, 9, 8, 6,
		4, 2, 1, 11, 10, 13, 7, 8, 15, 9, 12, 5, 6, 3, 0, 14,
		11, 8, 12, 7, 1, 14, 2, 13, 6, 15, 0, 9, 10, 4, 5, 3},
	{12, 1, 10, 15, 9, 2, 6, 8, 0, 13, 3, 4, 14, 7, 5, 11,
		10, 15, 4, 2, 7, 12, 9, 5, 6, 1, 13, 14, 0, 11, 3, 8,
		9, 14, 15, 5, 2, 8, 12, 3, 7, 0, 4, 10, 1, 13, 11, 6,
		4, 3, 2, 12, 9, 5, 15, 10, 11, 14, 1, 7, 6, 0, 8, 13},
	{4, 11, 2, 14, 15, 0, 8, 13, 3, 12, 9, 7, 5, 10, 6, 1,
		13, 0, 11, 7, 4, 9, 1, 10, 14, 3, 5, 12, 2, 15, 8, 6,
		1, 4, 11, 13, 12, 3, 7, 14, 10, 15, 6, 8, 0, 5, 9, 2,
		6, 11, 13, 8, 1, 4, 10, 7, 9, 5, 0, 15, 14, 2, 3, 12},
	{13, 2, 8, 4, 6, 15, 11, 1, 10, 9, 3, 14, 5, 0, 12, 7,
		1, 15, 13, 8, 10, 3, 7, 4, 12, 5, 6, 11, 0, 14, 9, 2,
		7, 11, 4, 1, 9, 12, 14, 2, 0, 6, 10, 13, 15, 3, 5, 8,
		2, 1, 14, 7, 4, 10, 8, 13, 15, 12, 9, 0, 3, 5, 6, 11},
}

// desE is the 32->48 expansion (1-based bit selectors, per the
// standard; bit 1 = MSB of the half-block).
var desE = [48]int{
	32, 1, 2, 3, 4, 5, 4, 5, 6, 7, 8, 9,
	8, 9, 10, 11, 12, 13, 12, 13, 14, 15, 16, 17,
	16, 17, 18, 19, 20, 21, 20, 21, 22, 23, 24, 25,
	24, 25, 26, 27, 28, 29, 28, 29, 30, 31, 32, 1,
}

// desP is the 32-bit P permutation (1-based, output bit i comes from
// input bit desP[i]).
var desP = [32]int{
	16, 7, 20, 21, 29, 12, 28, 17, 1, 15, 23, 26, 5, 18, 31, 10,
	2, 8, 24, 14, 32, 27, 3, 9, 19, 13, 30, 6, 22, 11, 4, 25,
}

// desSBoxLookup evaluates S-box b on a 6-bit value where bit5..bit0
// follow the standard layout (b5 b0 = row, b4..b1 = column).
func desSBoxLookup(box int, v byte) byte {
	row := ((v >> 4) & 2) | (v & 1)
	col := (v >> 1) & 0xF
	return desSBoxes[box][row*16+col]
}

// DESRound synthesizes one DES Feistel round. Inputs: the 64-bit block
// (L||R, bit 0 = standard bit 1 of L) and the 48-bit round key.
// Outputs: the 64-bit block after the round (L' = R, R' = L ⊕ f(R,K)).
func DESRound() (*netlist.Netlist, error) {
	b := NewBuilder("des_round")
	block := b.Input("blk", 64)
	rkey := b.Input("rk", 48)
	// Standard numbering: bit 1 = MSB. We store bit i (1-based) of L at
	// block[i-1] and of R at block[32+i-1].
	l := block[0:32]
	r := block[32:64]

	// Expansion: 48 wires selected from R.
	exp := make(Bus, 48)
	for i, sel := range desE {
		exp[i] = r[sel-1]
	}
	// Key mixing.
	x := b.Xor(exp, rkey)
	// S-boxes: each consumes 6 bits, produces 4.
	var sout Bus
	for s := 0; s < 8; s++ {
		six := x[s*6 : s*6+6]
		// Table input ordering: Table() treats in[0] as the LSB of the
		// row index; standard S-box input is b1..b6 with b1 the MSB.
		// Build the 64-entry table in Table()'s indexing.
		table := make([]uint64, 64)
		for v := 0; v < 64; v++ {
			// v is the Table row: bit j of v corresponds to six[j];
			// six[0] is the first expanded bit = standard b1 (MSB).
			var std byte
			for j := 0; j < 6; j++ {
				if v&(1<<j) != 0 {
					std |= 1 << (5 - j)
				}
			}
			out := desSBoxLookup(s, std)
			// S-box output is 4 bits, MSB first in the standard; emit
			// little-endian with bit 0 = standard bit 4... keep MSB
			// first mapping: result bit j (0..3) = standard bit j+1.
			var le uint64
			for j := 0; j < 4; j++ {
				if out&(1<<(3-j)) != 0 {
					le |= 1 << j
				}
			}
			table[v] = le
		}
		sout = append(sout, b.Table(six, table, 4)...)
	}
	// P permutation: output bit i (1-based) = sout bit desP[i].
	f := make(Bus, 32)
	for i := 0; i < 32; i++ {
		f[i] = sout[desP[i]-1]
	}
	newR := b.Xor(l, f)
	b.Output(r) // L' = R
	b.Output(newR)
	if err := b.N.Validate(); err != nil {
		return nil, err
	}
	return b.N, nil
}

// ---------------------------------------------------------------------------
// FIR filter (the CEP suite's DSP representative): a fixed-coefficient
// multiply-accumulate datapath lowered to shift-and-add logic.

// FIRFilter synthesizes y = Σ coeffs[i]·x[i] mod 2^width over `taps`
// parallel sample inputs of the given bit width (combinational MAC
// array; the sequential delay line is scan-converted away, matching
// the rest of the suite).
func FIRFilter(taps, width int, coeffs []int64) (*netlist.Netlist, error) {
	if taps < 1 || width < 2 || width > 32 {
		return nil, fmt.Errorf("circuit: FIR taps=%d width=%d out of range", taps, width)
	}
	if len(coeffs) != taps {
		return nil, fmt.Errorf("circuit: FIR needs %d coefficients, got %d", taps, len(coeffs))
	}
	b := NewBuilder(fmt.Sprintf("fir_%dt_%db", taps, width))
	xs := make([]Bus, taps)
	for i := range xs {
		xs[i] = b.Input(fmt.Sprintf("x%d", i), width)
	}
	acc := b.Const(0, width)
	for i, c := range coeffs {
		acc = b.Add(acc, b.mulConst(xs[i], uint64(c)&((1<<uint(width))-1)))
	}
	b.Output(acc)
	if err := b.N.Validate(); err != nil {
		return nil, err
	}
	return b.N, nil
}

// mulConst multiplies a bus by a constant via shift-and-add.
func (b *Builder) mulConst(x Bus, c uint64) Bus {
	w := len(x)
	acc := b.Const(0, w)
	for bit := 0; bit < w; bit++ {
		if c&(1<<bit) != 0 {
			acc = b.Add(acc, b.shlFill(x, bit))
		}
	}
	return acc
}

// shlFill shifts left by k bits, filling with zeros, same width.
func (b *Builder) shlFill(x Bus, k int) Bus {
	w := len(x)
	out := make(Bus, w)
	zero := -1
	for i := 0; i < w; i++ {
		if i >= k {
			out[i] = x[i-k]
		} else {
			if zero < 0 {
				zero = b.N.AddGate(b.fresh("z"), netlist.Const0)
			}
			out[i] = zero
		}
	}
	return out
}
