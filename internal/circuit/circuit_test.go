package circuit

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/netlist"
)

func TestBuilderAdd(t *testing.T) {
	b := NewBuilder("add8")
	x := b.Input("x", 8)
	y := b.Input("y", 8)
	b.Output(b.Add(x, y))
	sim, err := netlist.NewSimulator(b.N)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		xv := uint64(rng.Intn(256))
		yv := uint64(rng.Intn(256))
		in := append(Bits(xv, 8), Bits(yv, 8)...)
		out := sim.Eval(in)
		if got := Uint64(out); got != (xv+yv)&0xFF {
			t.Fatalf("%d + %d = %d, want %d", xv, yv, got, (xv+yv)&0xFF)
		}
	}
}

func TestBuilderRotShift(t *testing.T) {
	b := NewBuilder("rot")
	x := b.Input("x", 8)
	b.Output(b.RotR(x, 3))
	b.Output(b.RotL(x, 2))
	sim, _ := netlist.NewSimulator(b.N)
	for _, xv := range []uint64{0x01, 0x80, 0xA5, 0xFF, 0x00} {
		out := sim.Eval(Bits(xv, 8))
		rotr := Uint64(out[0:8])
		rotl := Uint64(out[8:16])
		if want := (xv>>3 | xv<<5) & 0xFF; rotr != want {
			t.Errorf("rotr3(%#x) = %#x, want %#x", xv, rotr, want)
		}
		if want := (xv<<2 | xv>>6) & 0xFF; rotl != want {
			t.Errorf("rotl2(%#x) = %#x, want %#x", xv, rotl, want)
		}
	}
}

func TestBuilderMuxConstTable(t *testing.T) {
	b := NewBuilder("tbl")
	x := b.Input("x", 4)
	table := []uint64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3}
	b.Output(b.Table(x, table, 4))
	sim, _ := netlist.NewSimulator(b.N)
	for xv := uint64(0); xv < 16; xv++ {
		if got := Uint64(sim.Eval(Bits(xv, 4))); got != table[xv] {
			t.Fatalf("table[%d] = %d, want %d", xv, got, table[xv])
		}
	}
}

func TestAESSBoxKnownValues(t *testing.T) {
	box := aesSBox()
	known := map[int]byte{
		0x00: 0x63, 0x01: 0x7C, 0x53: 0xED, 0x10: 0xCA,
		0xFF: 0x16, 0xC9: 0xDD, 0xAA: 0xAC,
	}
	for in, want := range known {
		if box[in] != want {
			t.Errorf("SBox(%#02x) = %#02x, want %#02x", in, box[in], want)
		}
	}
	// S-box must be a permutation.
	seen := map[byte]bool{}
	for _, v := range box {
		if seen[v] {
			t.Fatal("S-box is not a permutation")
		}
		seen[v] = true
	}
}

func TestAESRoundAgainstReference(t *testing.T) {
	for _, cols := range []int{1, 2, 4} {
		nl, err := AESRound(cols)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := netlist.NewSimulator(nl)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(cols)))
		trials := 20
		if cols == 4 {
			trials = 5
		}
		for trial := 0; trial < trials; trial++ {
			state := make([]byte, cols*4)
			rkey := make([]byte, cols*4)
			rng.Read(state)
			rng.Read(rkey)
			in := make([]bool, 0, cols*64)
			for _, b := range state {
				in = append(in, Bits(uint64(b), 8)...)
			}
			for _, b := range rkey {
				in = append(in, Bits(uint64(b), 8)...)
			}
			out := sim.Eval(in)
			want := AESRoundRef(state, rkey, cols)
			for i := 0; i < cols*4; i++ {
				got := byte(Uint64(out[i*8 : i*8+8]))
				if got != want[i] {
					t.Fatalf("cols=%d trial=%d byte %d: got %#02x want %#02x", cols, trial, i, got, want[i])
				}
			}
		}
	}
}

func TestSHA256AgainstReference(t *testing.T) {
	for _, rounds := range []int{1, 2, 4} {
		nl, err := SHA256Compress(rounds)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := netlist.NewSimulator(nl)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(rounds)))
		for trial := 0; trial < 10; trial++ {
			var st [8]uint32
			for i := range st {
				st[i] = rng.Uint32()
			}
			w := make([]uint32, rounds)
			for i := range w {
				w[i] = rng.Uint32()
			}
			in := make([]bool, 0, 256+32*rounds)
			for _, v := range st {
				in = append(in, Bits(uint64(v), 32)...)
			}
			for _, v := range w {
				in = append(in, Bits(uint64(v), 32)...)
			}
			out := sim.Eval(in)
			want := SHA256CompressRef(st, w)
			for i := 0; i < 8; i++ {
				got := uint32(Uint64(out[i*32 : i*32+32]))
				if got != want[i] {
					t.Fatalf("rounds=%d trial=%d word %d: got %#08x want %#08x", rounds, trial, i, got, want[i])
				}
			}
		}
	}
}

func TestMD5AgainstReference(t *testing.T) {
	for _, steps := range []int{1, 3, 8} {
		nl, err := MD5Steps(steps)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := netlist.NewSimulator(nl)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(steps)))
		for trial := 0; trial < 10; trial++ {
			var st [4]uint32
			for i := range st {
				st[i] = rng.Uint32()
			}
			m := make([]uint32, steps)
			for i := range m {
				m[i] = rng.Uint32()
			}
			in := make([]bool, 0, 128+32*steps)
			for _, v := range st {
				in = append(in, Bits(uint64(v), 32)...)
			}
			for _, v := range m {
				in = append(in, Bits(uint64(v), 32)...)
			}
			out := sim.Eval(in)
			want := MD5StepsRef(st, m)
			for i := 0; i < 4; i++ {
				got := uint32(Uint64(out[i*32 : i*32+32]))
				if got != want[i] {
					t.Fatalf("steps=%d trial=%d word %d: got %#08x want %#08x", steps, trial, i, got, want[i])
				}
			}
		}
	}
}

func TestGPSCAAgainstReference(t *testing.T) {
	for _, prn := range []int{1, 7, 32} {
		const chips = 16
		nl, err := GPSCA(prn, chips)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := netlist.NewSimulator(nl)
		if err != nil {
			t.Fatal(err)
		}
		// All-ones initial state is the standard C/A epoch.
		g1, g2 := uint16(0x3FF), uint16(0x3FF)
		in := append(Bits(uint64(g1), 10), Bits(uint64(g2), 10)...)
		out := sim.Eval(in)
		code, ng1, ng2 := GPSCARef(prn, chips, g1, g2)
		for i, want := range code {
			if out[i] != want {
				t.Fatalf("prn=%d chip %d = %v, want %v", prn, i, out[i], want)
			}
		}
		if got := uint16(Uint64(out[chips : chips+10])); got != ng1 {
			t.Errorf("prn=%d g1 next state %#x, want %#x", prn, got, ng1)
		}
		if got := uint16(Uint64(out[chips+10 : chips+20])); got != ng2 {
			t.Errorf("prn=%d g2 next state %#x, want %#x", prn, got, ng2)
		}
	}
}

func TestGPSCAFirstChipsPRN1(t *testing.T) {
	// The first 10 chips of PRN 1 from the all-ones epoch are the
	// well-known octal 1440 pattern: 1100100000.
	code, _, _ := GPSCARef(1, 10, 0x3FF, 0x3FF)
	want := []bool{true, true, false, false, true, false, false, false, false, false}
	for i := range want {
		if code[i] != want[i] {
			t.Fatalf("PRN1 chip %d = %v, want %v (sequence %v)", i, code[i], want[i], code)
		}
	}
}

func TestISCASProfiles(t *testing.T) {
	for _, p := range ISCASProfiles() {
		nl, err := p.Synthesize(0.05)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if err := nl.Validate(); err != nil {
			t.Fatalf("%s invalid: %v", p.Name, err)
		}
		stats, err := nl.ComputeStats()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Gates < 10 {
			t.Errorf("%s@0.05 suspiciously small: %v", p.Name, stats)
		}
	}
	if _, ok := ProfileByName("c7552"); !ok {
		t.Error("c7552 profile missing")
	}
	if _, ok := ProfileByName("nope"); ok {
		t.Error("unknown profile resolved")
	}
}

func TestC7552FullScaleMatchesPublishedCounts(t *testing.T) {
	p, _ := ProfileByName("c7552")
	nl, err := p.Synthesize(1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(nl.Inputs) != 207 || len(nl.Outputs) != 108 {
		t.Errorf("c7552 IO = %d/%d, want 207/108", len(nl.Inputs), len(nl.Outputs))
	}
	got := nl.NumLogicGates()
	if got < 3512*8/10 || got > 3512*11/10 {
		t.Errorf("c7552 gate count %d not within 20%% of 3512", got)
	}
}

func TestCEPSuiteSmall(t *testing.T) {
	suite, err := CEPSuite("small")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"AES", "SHA-256", "MD5", "GPS", "DES", "FIR"} {
		nl, ok := suite[name]
		if !ok {
			t.Fatalf("missing %s", name)
		}
		if err := nl.Validate(); err != nil {
			t.Errorf("%s invalid: %v", name, err)
		}
	}
	if _, err := CEPSuite("bogus"); err == nil {
		t.Error("bogus scale accepted")
	}
}

func TestBenchExportOfCEP(t *testing.T) {
	// The synthesized cores must survive a .bench round trip.
	nl, err := MD5Steps(1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := nl.WriteBench(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := netlist.ParseBench("md5", &buf)
	if err != nil {
		t.Fatal(err)
	}
	eq, cex, err := netlist.Equivalent(nl, back, 0, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Errorf("bench round trip changed MD5 core, cex=%v", cex)
	}
}
