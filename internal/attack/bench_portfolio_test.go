package attack

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/sat"
)

// buildMiter reconstructs the attack's solver state at iteration k of
// the DIP loop on an n-worker engine: the miter SATAttack builds plus
// the first k recorded DIP constraints. It returns the engine and the
// activation assumption for the difference clause.
func buildMiter(t testing.TB, locked *core.Result, dips [][2][]bool, k, n int) (sat.Engine, cnf.Lit) {
	t.Helper()
	m, err := newMiter(locked.Locked, locked.KeyInputPos, SATOptions{Portfolio: n}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k && i < len(dips); i++ {
		if !m.constrainDIP(dips[i][0], dips[i][1]) {
			t.Fatal("DIP constraint made the miter unsatisfiable")
		}
	}
	return m.eng, cnf.MkLit(m.act, false)
}

// The portfolio solve benchmark instance: a hard solve call from the
// c7552-profile DIP loop. solveBenchBlocks/Seed pick the lock,
// solveBenchIter the iteration — a solve point where, under search
// version 0, the default configuration ground for ~12 s while a
// diversified worker (the no-restart prover, whose racing trajectory
// is bit-identical to its solo run) finished in ~0.1 s, found by
// scanning the per-iteration solve times of several locks for
// configuration spread (see EXPERIMENTS.md). Under search version 1
// the call at that iteration took ~8 s sequentially and ~1.2 s on 8
// workers; under search version 2 it takes ~4.5 s sequentially, 0.2 s
// on 4 workers and 0.9 s on 8 (2-vCPU host, one sample each). The
// prefix up to that iteration is cheap; the benchmark times only the
// hard call itself.
const (
	solveBenchScale  = 0.1
	solveBenchBlocks = 2
	solveBenchSeed   = 17
	solveBenchIter   = 47
)

var solveBench struct {
	once sync.Once
	res  *core.Result
	dips [][2][]bool
	err  error
}

// solveBenchState replays the sequential attack up to solveBenchIter
// (cheap: the hard call is what *ends* the prefix) and caches the
// lock and DIP constraint prefix for every solve benchmark.
func solveBenchState(b *testing.B) (*core.Result, [][2][]bool) {
	b.Helper()
	solveBench.once.Do(func() {
		prof, ok := circuit.ProfileByName("c7552")
		if !ok {
			solveBench.err = errFixture("c7552 profile missing")
			return
		}
		orig, err := prof.Synthesize(solveBenchScale)
		if err != nil {
			solveBench.err = err
			return
		}
		res, err := core.Lock(orig, core.Options{
			Blocks: solveBenchBlocks, Size: core.Size8x8, Seed: solveBenchSeed,
		})
		if err != nil {
			solveBench.err = err
			return
		}
		bound, err := res.ApplyKey(res.Key)
		if err != nil {
			solveBench.err = err
			return
		}
		oracle, err := NewSimOracle(bound)
		if err != nil {
			solveBench.err = err
			return
		}
		var trace bytes.Buffer
		if _, err := SATAttack(res.Locked, res.KeyInputPos, oracle, SATOptions{
			Timeout:       10 * time.Minute,
			MaxIterations: solveBenchIter,
			Trace:         &trace,
		}); err != nil {
			solveBench.err = err
			return
		}
		var dips [][2][]bool
		for _, line := range strings.Split(trace.String(), "\n") {
			if line == "" {
				continue
			}
			parts := strings.Split(line, ",")
			if len(parts) != 3 {
				solveBench.err = errFixture("malformed trace line: " + line)
				return
			}
			d, err := parseBits(parts[1])
			if err != nil {
				solveBench.err = err
				return
			}
			o, err := parseBits(parts[2])
			if err != nil {
				solveBench.err = err
				return
			}
			dips = append(dips, [2][]bool{d, o})
		}
		if len(dips) != solveBenchIter {
			solveBench.err = errFixture("trace did not reach the benchmark iteration")
			return
		}
		solveBench.res, solveBench.dips = res, dips
	})
	if solveBench.err != nil {
		b.Fatal(solveBench.err)
	}
	return solveBench.res, solveBench.dips
}

type errFixture string

func (e errFixture) Error() string { return string(e) }

// benchSolvePortfolio times the hard solve call under an n-worker
// engine. Engine construction and miter stamping are excluded from
// the timing; only Solve is measured.
func benchSolvePortfolio(b *testing.B, n int) {
	res, dips := solveBenchState(b)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng, assume := buildMiter(b, res, dips, solveBenchIter, n)
		b.StartTimer()
		if st := eng.Solve(assume); st == sat.Unknown {
			b.Fatalf("solve returned %v", st)
		}
	}
}

func BenchmarkSolvePortfolio1(b *testing.B) { benchSolvePortfolio(b, 1) }
func BenchmarkSolvePortfolio4(b *testing.B) { benchSolvePortfolio(b, 4) }
func BenchmarkSolvePortfolio8(b *testing.B) { benchSolvePortfolio(b, 8) }

// benchLockedC432 builds the fixed c432/8x8/seed-432 lock used by the
// miter-encoding benchmarks.
func benchLockedC432(b *testing.B) *core.Result {
	b.Helper()
	prof, ok := circuit.ProfileByName("c432")
	if !ok {
		b.Fatal("c432 profile missing")
	}
	orig, err := prof.Synthesize(1.0)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Lock(orig, core.Options{Blocks: 1, Size: core.Size8x8, Seed: 432})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkMiterStampVsReencode measures the per-DIP cost of growing
// the miter: stamping the precompiled CNF template against re-walking
// the netlist with a fresh structural encoder. Both paths emit the
// same clause stream for one circuit copy with the key inputs bound
// to shared variables — exactly what constrainDIP does twice per
// iteration of the DIP loop.
func BenchmarkMiterStampVsReencode(b *testing.B) {
	res := benchLockedC432(b)
	locked := res.Locked
	keyPos := res.KeyInputPos
	tmpl, err := cnf.CompileTemplate(locked)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("stamp", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f := cnf.NewFormula()
			shared := make(map[int]cnf.Var, len(keyPos))
			for _, p := range keyPos {
				shared[p] = f.NewVar()
			}
			if _, ok := tmpl.Stamp(f, shared); !ok {
				b.Fatal("stamp hit a contradiction on an empty sink")
			}
		}
	})
	b.Run("reencode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			enc := cnf.NewEncoder()
			shared := make(map[int]cnf.Var, len(keyPos))
			for _, p := range keyPos {
				shared[p] = enc.F.NewVar()
			}
			if _, err := enc.Encode(locked, shared); err != nil {
				b.Fatal(err)
			}
		}
	})
}
