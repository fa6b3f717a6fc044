package circuit

import (
	"fmt"

	"repro/internal/netlist"
)

// ---------------------------------------------------------------------------
// AES

// aesBox is the AES S-box, computed once.
var aesBox = aesSBox()

// aesSBox computes the AES S-box from first principles (GF(2^8)
// inversion modulo x^8+x^4+x^3+x+1, then the affine transform), so the
// benchmark carries no opaque constant table.
func aesSBox() [256]byte {
	mul := func(a, b byte) byte {
		var p byte
		for b != 0 {
			if b&1 != 0 {
				p ^= a
			}
			hi := a & 0x80
			a <<= 1
			if hi != 0 {
				a ^= 0x1B
			}
			b >>= 1
		}
		return p
	}
	inv := func(a byte) byte {
		if a == 0 {
			return 0
		}
		// a^254 in GF(2^8) is the inverse.
		r := byte(1)
		base := a
		for e := 254; e > 0; e >>= 1 {
			if e&1 != 0 {
				r = mul(r, base)
			}
			base = mul(base, base)
		}
		return r
	}
	var box [256]byte
	for i := 0; i < 256; i++ {
		x := inv(byte(i))
		// Affine: b_i = x_i ^ x_{i+4} ^ x_{i+5} ^ x_{i+6} ^ x_{i+7} ^ c_i, c = 0x63.
		var y byte
		for bit := 0; bit < 8; bit++ {
			b := (x >> bit) & 1
			b ^= (x >> ((bit + 4) % 8)) & 1
			b ^= (x >> ((bit + 5) % 8)) & 1
			b ^= (x >> ((bit + 6) % 8)) & 1
			b ^= (x >> ((bit + 7) % 8)) & 1
			b ^= (0x63 >> bit) & 1
			y |= b << bit
		}
		box[i] = y
	}
	return box
}

// xtime lowers GF(2^8) doubling to gates.
func (b *Builder) xtime(x Bus) Bus {
	if len(x) != 8 {
		panic("circuit: xtime needs 8 bits")
	}
	out := make(Bus, 8)
	out[0] = x[7]
	for i := 1; i < 8; i++ {
		if i == 1 || i == 3 || i == 4 { // 0x1B has bits 0,1,3,4
			out[i] = b.N.AddGate(b.fresh("xt"), netlist.Xor, x[i-1], x[7])
		} else {
			out[i] = x[i-1]
		}
	}
	return out
}

// AESRound synthesizes one full AES round (SubBytes, ShiftRows,
// MixColumns, AddRoundKey) over cols state columns (cols=4 is real
// AES-128; smaller cols give scaled benchmarks with identical
// structure). Inputs: state (cols*32 bits), roundkey (cols*32 bits).
// Output: next state.
func AESRound(cols int) (*netlist.Netlist, error) {
	if cols < 1 || cols > 4 {
		return nil, fmt.Errorf("circuit: AESRound cols %d out of range [1,4]", cols)
	}
	b := NewBuilder(fmt.Sprintf("aes_round_%dcol", cols))
	state := b.Input("st", cols*32)
	rkey := b.Input("rk", cols*32)

	table := make([]uint64, 256)
	for i, v := range aesBox {
		table[i] = uint64(v)
	}

	// State layout: byte (col, row) at bits [ (col*4+row)*8, +8 ).
	getByte := func(bus Bus, col, row int) Bus {
		off := (col*4 + row) * 8
		return bus[off : off+8]
	}

	// SubBytes.
	sub := make([][]Bus, cols)
	for c := 0; c < cols; c++ {
		sub[c] = make([]Bus, 4)
		for r := 0; r < 4; r++ {
			sub[c][r] = b.Table(getByte(state, c, r), table, 8)
		}
	}
	// ShiftRows: row r rotates left by r (mod cols).
	shifted := make([][]Bus, cols)
	for c := 0; c < cols; c++ {
		shifted[c] = make([]Bus, 4)
		for r := 0; r < 4; r++ {
			shifted[c][r] = sub[(c+r)%cols][r]
		}
	}
	// MixColumns.
	mixed := make([][]Bus, cols)
	for c := 0; c < cols; c++ {
		a := shifted[c]
		mixed[c] = make([]Bus, 4)
		for r := 0; r < 4; r++ {
			d2 := b.xtime(a[r])
			d3 := b.Xor(b.xtime(a[(r+1)%4]), a[(r+1)%4])
			t := b.Xor(d2, d3)
			t = b.Xor(t, a[(r+2)%4])
			mixed[c][r] = b.Xor(t, a[(r+3)%4])
		}
	}
	// AddRoundKey and outputs.
	for c := 0; c < cols; c++ {
		for r := 0; r < 4; r++ {
			out := b.Xor(mixed[c][r], getByte(rkey, c, r))
			b.Output(out)
		}
	}
	if err := b.N.Validate(); err != nil {
		return nil, err
	}
	return b.N, nil
}

// AESRoundRef is the software reference of AESRound over byte slices
// with the same (col,row) layout. state and rkey hold cols*4 bytes.
func AESRoundRef(state, rkey []byte, cols int) []byte {
	get := func(s []byte, c, r int) byte { return s[c*4+r] }
	sub := make([]byte, cols*4)
	for c := 0; c < cols; c++ {
		for r := 0; r < 4; r++ {
			sub[c*4+r] = aesBox[get(state, c, r)]
		}
	}
	shift := make([]byte, cols*4)
	for c := 0; c < cols; c++ {
		for r := 0; r < 4; r++ {
			shift[c*4+r] = sub[((c+r)%cols)*4+r]
		}
	}
	xt := func(x byte) byte {
		v := x << 1
		if x&0x80 != 0 {
			v ^= 0x1B
		}
		return v
	}
	out := make([]byte, cols*4)
	for c := 0; c < cols; c++ {
		a := shift[c*4 : c*4+4]
		for r := 0; r < 4; r++ {
			v := xt(a[r]) ^ (xt(a[(r+1)%4]) ^ a[(r+1)%4]) ^ a[(r+2)%4] ^ a[(r+3)%4]
			out[c*4+r] = v ^ get(rkey, c, r)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// SHA-256

var sha256K = [64]uint32{
	0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
	0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
	0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
	0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
	0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
	0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
	0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
	0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
}

// SHA256Compress synthesizes `rounds` rounds of the SHA-256 compression
// function. Inputs: 8 state words a..h (256 bits) and one message word
// per round (32*rounds bits). Output: the 8 updated state words.
func SHA256Compress(rounds int) (*netlist.Netlist, error) {
	if rounds < 1 || rounds > 64 {
		return nil, fmt.Errorf("circuit: SHA256Compress rounds %d out of range [1,64]", rounds)
	}
	b := NewBuilder(fmt.Sprintf("sha256_%dr", rounds))
	st := b.Input("st", 256)
	w := b.Input("w", 32*rounds)

	words := make([]Bus, 8)
	for i := range words {
		words[i] = st[i*32 : (i+1)*32]
	}
	a, bb, c, d, e, f, g, h := words[0], words[1], words[2], words[3], words[4], words[5], words[6], words[7]

	for r := 0; r < rounds; r++ {
		wr := w[r*32 : (r+1)*32]
		k := b.Const(uint64(sha256K[r]), 32)
		s1 := b.Xor(b.Xor(b.RotR(e, 6), b.RotR(e, 11)), b.RotR(e, 25))
		ch := b.Xor(b.And(e, f), b.And(b.Not(e), g))
		t1 := b.Add(b.Add(b.Add(b.Add(h, s1), ch), k), wr)
		s0 := b.Xor(b.Xor(b.RotR(a, 2), b.RotR(a, 13)), b.RotR(a, 22))
		maj := b.Xor(b.Xor(b.And(a, bb), b.And(a, c)), b.And(bb, c))
		t2 := b.Add(s0, maj)
		h, g, f = g, f, e
		e = b.Add(d, t1)
		d, c, bb = c, bb, a
		a = b.Add(t1, t2)
	}
	for _, bus := range []Bus{a, bb, c, d, e, f, g, h} {
		b.Output(bus)
	}
	if err := b.N.Validate(); err != nil {
		return nil, err
	}
	return b.N, nil
}

// ---------------------------------------------------------------------------
// MD5

var md5K = [16]uint32{
	0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee,
	0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501,
	0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be,
	0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821,
}

var md5S = [16]int{7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22}

// MD5Steps synthesizes the first `steps` (1..16) F-steps of MD5.
// Inputs: 4 state words (128 bits) and one message word per step.
// Output: the 4 updated words.
func MD5Steps(steps int) (*netlist.Netlist, error) {
	if steps < 1 || steps > 16 {
		return nil, fmt.Errorf("circuit: MD5Steps steps %d out of range [1,16]", steps)
	}
	bld := NewBuilder(fmt.Sprintf("md5_%ds", steps))
	st := bld.Input("st", 128)
	m := bld.Input("m", 32*steps)
	a, b, c, d := st[0:32], st[32:64], st[64:96], st[96:128]
	for s := 0; s < steps; s++ {
		// F = (b & c) | (~b & d)
		f := bld.Or(bld.And(b, c), bld.And(bld.Not(b), d))
		sum := bld.Add(bld.Add(bld.Add(a, f), bld.Const(uint64(md5K[s]), 32)), m[s*32:(s+1)*32])
		rot := bld.RotL(sum, md5S[s])
		newB := bld.Add(b, rot)
		a, d, c, b = d, c, b, newB
	}
	for _, bus := range []Bus{a, b, c, d} {
		bld.Output(bus)
	}
	if err := bld.N.Validate(); err != nil {
		return nil, err
	}
	return bld.N, nil
}

// ---------------------------------------------------------------------------
// GPS C/A code (Gold code) generator

// gpsG2Taps gives, per PRN (1..32), the pair of G2 stages (1-based)
// whose XOR forms the satellite-specific G2 output.
var gpsG2Taps = [33][2]int{
	1: {2, 6}, 2: {3, 7}, 3: {4, 8}, 4: {5, 9}, 5: {1, 9}, 6: {2, 10},
	7: {1, 8}, 8: {2, 9}, 9: {3, 10}, 10: {2, 3}, 11: {3, 4}, 12: {5, 6},
	13: {6, 7}, 14: {7, 8}, 15: {8, 9}, 16: {9, 10}, 17: {1, 4}, 18: {2, 5},
	19: {3, 6}, 20: {4, 7}, 21: {5, 8}, 22: {6, 9}, 23: {1, 3}, 24: {4, 6},
	25: {5, 7}, 26: {6, 8}, 27: {7, 9}, 28: {8, 10}, 29: {1, 6}, 30: {2, 7},
	31: {3, 8}, 32: {4, 9},
}

// GPSCA synthesizes `chips` unrolled steps of the GPS C/A (coarse
// acquisition) Gold-code generator for the given PRN: two 10-bit LFSRs
// (G1: x^10+x^3+1, G2: x^10+x^9+x^8+x^6+x^3+x^2+1) producing one chip
// per step. Inputs: the 20 LFSR state bits. Outputs: the `chips` code
// bits followed by the 20 next-state bits.
func GPSCA(prn, chips int) (*netlist.Netlist, error) {
	if prn < 1 || prn > 32 {
		return nil, fmt.Errorf("circuit: GPS PRN %d out of range [1,32]", prn)
	}
	if chips < 1 || chips > 1023 {
		return nil, fmt.Errorf("circuit: GPS chips %d out of range [1,1023]", chips)
	}
	b := NewBuilder(fmt.Sprintf("gps_ca_prn%d_%dc", prn, chips))
	g1 := b.Input("g1", 10) // g1[i] = stage i+1
	g2 := b.Input("g2", 10)
	taps := gpsG2Taps[prn]

	var code Bus
	for step := 0; step < chips; step++ {
		g2out := b.N.AddGate(b.fresh("g2o"), netlist.Xor, g2[taps[0]-1], g2[taps[1]-1])
		chip := b.N.AddGate(b.fresh("chip"), netlist.Xor, g1[9], g2out)
		code = append(code, chip)
		// G1 feedback: stage3 ^ stage10; G2: 2,3,6,8,9,10.
		f1 := b.N.AddGate(b.fresh("f1"), netlist.Xor, g1[2], g1[9])
		f2a := b.N.AddGate(b.fresh("f2"), netlist.Xor, g2[1], g2[2])
		f2b := b.N.AddGate(b.fresh("f2"), netlist.Xor, g2[5], g2[7])
		f2c := b.N.AddGate(b.fresh("f2"), netlist.Xor, g2[8], g2[9])
		f2d := b.N.AddGate(b.fresh("f2"), netlist.Xor, f2a, f2b)
		f2 := b.N.AddGate(b.fresh("f2"), netlist.Xor, f2d, f2c)
		ng1 := make(Bus, 10)
		ng2 := make(Bus, 10)
		ng1[0], ng2[0] = f1, f2
		copy(ng1[1:], g1[:9])
		copy(ng2[1:], g2[:9])
		g1, g2 = ng1, ng2
	}
	b.Output(code)
	b.Output(g1)
	b.Output(g2)
	if err := b.N.Validate(); err != nil {
		return nil, err
	}
	return b.N, nil
}
