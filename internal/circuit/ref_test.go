package circuit

// Software reference models of the CEP circuits, which the tests
// compare the synthesized netlists against.

// SHA256CompressRef is the software reference for SHA256Compress.
// st has 8 words; w has `rounds` words. Returns the 8 updated words.
func SHA256CompressRef(st [8]uint32, w []uint32) [8]uint32 {
	rotr := func(x uint32, k uint) uint32 { return x>>k | x<<(32-k) }
	a, b, c, d, e, f, g, h := st[0], st[1], st[2], st[3], st[4], st[5], st[6], st[7]
	for r := range w {
		s1 := rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25)
		ch := (e & f) ^ (^e & g)
		t1 := h + s1 + ch + sha256K[r] + w[r]
		s0 := rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22)
		maj := (a & b) ^ (a & c) ^ (b & c)
		t2 := s0 + maj
		h, g, f = g, f, e
		e = d + t1
		d, c, b = c, b, a
		a = t1 + t2
	}
	return [8]uint32{a, b, c, d, e, f, g, h}
}

// MD5StepsRef is the software reference for MD5Steps.
func MD5StepsRef(st [4]uint32, m []uint32) [4]uint32 {
	rotl := func(x uint32, k int) uint32 { return x<<k | x>>(32-k) }
	a, b, c, d := st[0], st[1], st[2], st[3]
	for s := range m {
		f := (b & c) | (^b & d)
		sum := a + f + md5K[s] + m[s]
		newB := b + rotl(sum, md5S[s])
		a, d, c, b = d, c, b, newB
	}
	return [4]uint32{a, b, c, d}
}

// GPSCARef is the software reference: returns chips code bits and the
// final LFSR states, starting from the given 10-bit states (bit i =
// stage i+1).
func GPSCARef(prn, chips int, g1, g2 uint16) (code []bool, ng1, ng2 uint16) {
	taps := gpsG2Taps[prn]
	bit := func(v uint16, stage int) uint16 { return (v >> (stage - 1)) & 1 }
	for step := 0; step < chips; step++ {
		g2out := bit(g2, taps[0]) ^ bit(g2, taps[1])
		chip := bit(g1, 10) ^ g2out
		code = append(code, chip == 1)
		f1 := bit(g1, 3) ^ bit(g1, 10)
		f2 := bit(g2, 2) ^ bit(g2, 3) ^ bit(g2, 6) ^ bit(g2, 8) ^ bit(g2, 9) ^ bit(g2, 10)
		g1 = (g1<<1 | f1) & 0x3FF
		g2 = (g2<<1 | f2) & 0x3FF
	}
	return code, g1, g2
}

// DESRoundRef is the software reference: block and key bits use the
// same layout as DESRound (bit i of the bus = standard bit i+1).
func DESRoundRef(block [64]bool, rkey [48]bool) [64]bool {
	var l, r [32]bool
	copy(l[:], block[0:32])
	copy(r[:], block[32:64])
	var x [48]bool
	for i, sel := range desE {
		x[i] = r[sel-1] != rkey[i]
	}
	var sout [32]bool
	for s := 0; s < 8; s++ {
		var std byte
		for j := 0; j < 6; j++ {
			if x[s*6+j] {
				std |= 1 << (5 - j)
			}
		}
		out := desSBoxLookup(s, std)
		for j := 0; j < 4; j++ {
			sout[s*4+j] = out&(1<<(3-j)) != 0
		}
	}
	var res [64]bool
	copy(res[0:32], r[:])
	for i := 0; i < 32; i++ {
		res[32+i] = l[i] != sout[desP[i]-1]
	}
	return res
}

// FIRFilterRef is the software reference.
func FIRFilterRef(width int, coeffs []int64, samples []uint64) uint64 {
	mask := uint64(1)<<uint(width) - 1
	var acc uint64
	for i, c := range coeffs {
		acc = (acc + (uint64(c)&mask)*samples[i]) & mask
	}
	return acc
}
