package core

import (
	"testing"

	"repro/internal/circuit"
)

// benchLock locks c7552 at the given scale b.N times, seeds 1, 2, ...
func benchLock(b *testing.B, scale float64, blocks int, size Size) {
	prof, _ := circuit.ProfileByName("c7552")
	nl, err := prof.Synthesize(scale)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Lock(nl, Options{Blocks: blocks, Size: size, Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLock_8x8x8x3_C7552(b *testing.B) { benchLock(b, 0.25, 3, Size8x8x8) }

// BenchmarkLock_2x2x100_C7552 is the largest lock of Table I: 100 2×2
// blocks on c7552 at the tables' scale.
func BenchmarkLock_2x2x100_C7552(b *testing.B) { benchLock(b, 0.1, 100, Size2x2) }
