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
