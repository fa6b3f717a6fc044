// Package logic provides catalogues and utilities for small Boolean
// functions: the sixteen two-input functions realizable by a 2-input
// LUT (paper Table II), their configuration-key encodings, and generic
// N-input truth-table manipulation used throughout the obfuscation and
// attack packages.
package logic

import (
	"fmt"
	"strings"
)

// Func2 identifies one of the sixteen two-input Boolean functions by its
// truth table, packed little-endian by input index: bit i of the value
// is f(A,B) where i = 2*A + B. Thus bit0 = f(0,0), bit1 = f(0,1),
// bit2 = f(1,0), bit3 = f(1,1).
type Func2 uint8

// The sixteen two-input functions, named as in paper Table II.
const (
	Const0  Func2 = 0x0 // 0000: constant 0
	NOR     Func2 = 0x1 // 0001: A NOR B
	AnotB   Func2 = 0x4 // 0100: A AND NOT B
	NotA    Func2 = 0x3 // 0011: NOT A
	notAB   Func2 = 0x2 // 0010: NOT A AND B
	NotB    Func2 = 0x5 // 0101: NOT B
	XOR     Func2 = 0x6 // 0110: A XOR B
	NAND    Func2 = 0x7 // 0111: A NAND B
	AND     Func2 = 0x8 // 1000: A AND B
	XNOR    Func2 = 0x9 // 1001: A XNOR B
	BufB    Func2 = 0xA // 1010: B
	AnandNB Func2 = 0xB // 1011: A NAND NOT B  (= NOT A OR B)
	BufA    Func2 = 0xC // 1100: A
	NAnotB  Func2 = 0xD // 1101: NOT A NAND B  (= A OR NOT B)
	OR      Func2 = 0xE // 1110: A OR B
	Const1  Func2 = 0xF // 1111: constant 1
)

// NotAAndB is the exported name for the function NOT(A) AND B.
const NotAAndB = notAB

// Eval evaluates the function on inputs a and b.
func (f Func2) Eval(a, b bool) bool {
	idx := 0
	if a {
		idx += 2
	}
	if b {
		idx++
	}
	return f&(1<<idx) != 0
}

// Keys returns the four configuration key bits K1..K4 for the MRAM LUT,
// in the paper's Table II ordering. The paper shifts keys in through BL
// while addressing cells in the order AB = 11, 10, 01, 00; hence
// K1 = f(1,1), K2 = f(1,0), K3 = f(0,1), K4 = f(0,0).
func (f Func2) Keys() [4]bool {
	return [4]bool{
		f&(1<<3) != 0, // K1 = f(1,1)
		f&(1<<2) != 0, // K2 = f(1,0)
		f&(1<<1) != 0, // K3 = f(0,1)
		f&(1<<0) != 0, // K4 = f(0,0)
	}
}

// Invert returns the complement function: (¬f)(a,b) = ¬f(a,b).
func (f Func2) Invert() Func2 { return ^f & 0xF }

// SwapInputs returns g with g(a,b) = f(b,a).
func (f Func2) SwapInputs() Func2 {
	g := f & 0x9 // bits 0 and 3 are symmetric
	if f&(1<<1) != 0 {
		g |= 1 << 2
	}
	if f&(1<<2) != 0 {
		g |= 1 << 1
	}
	return g
}

// DependsOnA reports whether the output ever changes with input A.
func (f Func2) DependsOnA() bool {
	// compare rows a=0 (bits 0,1) with a=1 (bits 2,3)
	return (f & 0x3) != (f>>2)&0x3
}

// DependsOnB reports whether the output ever changes with input B.
func (f Func2) DependsOnB() bool {
	b0 := (f & (1 << 0) >> 0) | (f & (1 << 2) >> 1) // f(0,0), f(1,0)
	b1 := (f & (1 << 1) >> 1) | (f & (1 << 3) >> 2) // f(0,1), f(1,1)
	return b0 != b1
}

// String returns the paper's name for the function.
func (f Func2) String() string {
	switch f & 0xF {
	case Const0:
		return "0"
	case NOR:
		return "A NOR B"
	case notAB:
		return "notA AND B"
	case NotA:
		return "NOT A"
	case AnotB:
		return "A AND notB"
	case NotB:
		return "NOT B"
	case XOR:
		return "A XOR B"
	case NAND:
		return "A NAND B"
	case AND:
		return "A AND B"
	case XNOR:
		return "A XNOR B"
	case BufB:
		return "B"
	case AnandNB:
		return "A NAND notB"
	case BufA:
		return "A"
	case NAnotB:
		return "notA NAND B"
	case OR:
		return "A OR B"
	case Const1:
		return "1"
	}
	return "invalid"
}

// AllFunc2 lists all sixteen functions in Table II row order
// (left column top-to-bottom, then right column top-to-bottom).
func AllFunc2() []Func2 {
	return []Func2{
		Const0, NOR, notAB, NotA, AnotB, NotB, XOR, NAND,
		Const1, OR, AnandNB, BufA, NAnotB, BufB, XNOR, AND,
	}
}

// TT is an N-input truth table with up to 6 inputs packed into a uint64
// plus explicit overflow words for larger N. Bit i holds f(x) where x is
// the input assignment encoded with input 0 as the least-significant bit.
type TT struct {
	n     int
	words []uint64
}

// NewTT returns an all-zero truth table over n inputs. n must be in [0, 20].
func NewTT(n int) *TT {
	if n < 0 || n > 20 {
		panic(fmt.Sprintf("logic: truth table size %d out of range [0,20]", n))
	}
	rows := 1 << n
	nw := (rows + 63) / 64
	if nw == 0 {
		nw = 1
	}
	return &TT{n: n, words: make([]uint64, nw)}
}

// Rows returns the number of rows (2^n).
func (t *TT) Rows() int { return 1 << t.n }

// Get returns the output bit for input assignment row.
func (t *TT) Get(row int) bool {
	return t.words[row>>6]&(1<<(uint(row)&63)) != 0
}

// Set assigns the output bit for input assignment row.
func (t *TT) Set(row int, v bool) {
	if v {
		t.words[row>>6] |= 1 << (uint(row) & 63)
	} else {
		t.words[row>>6] &^= 1 << (uint(row) & 63)
	}
}

// String renders the table as a bit string, row 0 first.
func (t *TT) String() string {
	var sb strings.Builder
	for r := 0; r < t.Rows(); r++ {
		if t.Get(r) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}
