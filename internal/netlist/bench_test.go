package netlist_test

import (
	"io"
	"testing"

	"repro/internal/circuit"
	"repro/internal/netlist"
)

// BenchmarkBenchIO_WriteParse writes c7552@0.25 as .bench text and
// parses it back through a pipe.
func BenchmarkBenchIO_WriteParse(b *testing.B) {
	prof, _ := circuit.ProfileByName("c7552")
	nl, err := prof.Synthesize(0.25)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr, pw := io.Pipe()
		done := make(chan error, 1)
		go func() {
			done <- nl.WriteBench(pw)
			pw.Close()
		}()
		if _, err := netlist.ParseBench("c7552", pr); err != nil {
			b.Fatal(err)
		}
		if err := <-done; err != nil {
			b.Fatal(err)
		}
	}
}

// benchSink keeps the simulated words live.
var benchSink uint64

// BenchmarkSimulator_AESRound runs one 64-pattern word through an AES
// round (S-boxes, ShiftRows, MixColumns, AddRoundKey).
func BenchmarkSimulator_AESRound(b *testing.B) {
	nl, err := circuit.AESRound(1)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := netlist.NewSimulator(nl)
	if err != nil {
		b.Fatal(err)
	}
	in := make([]uint64, len(nl.Inputs))
	for i := range in {
		in[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := sim.Run(in)
		in[0] ^= out[0] // keep the loop live
	}
}

// BenchmarkSimulator_Exhaustive16x300 simulates random 16-input,
// 300-gate netlists, the fault tests' profile, over all 2^16 input
// patterns: 1,024 words a netlist. An op is one netlist's sweep,
// cycling through 40 netlists; words/s is the rate of simulated words.
func BenchmarkSimulator_Exhaustive16x300(b *testing.B) {
	sims := make([]*netlist.Simulator, 40)
	for i := range sims {
		nl, err := netlist.Random(netlist.RandomProfile{
			Name: "ex", Inputs: 16, Outputs: 8, Gates: 300, Locality: 0.6,
		}, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if sims[i], err = netlist.NewSimulator(nl); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim := sims[i%len(sims)]
		netlist.AllPatterns(16, func(in []uint64, _ uint64) bool {
			benchSink ^= sim.Run(in)[0]
			return true
		})
	}
	b.ReportMetric(float64(b.N)*1024/b.Elapsed().Seconds(), "words/s")
}
