package report

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/netlist"
)

// TestMain checks, after every test of the package has run, that no
// table edited a shared benchmark circuit: each circuit the memo built
// must still digest as it did when it was built, and as a fresh build
// does.
func TestMain(m *testing.M) {
	code := m.Run()
	if edited := editedBenchmarks(); len(edited) > 0 {
		for _, e := range edited {
			fmt.Fprintln(os.Stderr, "shared benchmark circuit", e)
		}
		code = 1
	}
	os.Exit(code)
}

// editedBenchmarks re-digests every circuit in the process's memo and
// names each one whose digest moved since its build or differs from a
// fresh build's.
func editedBenchmarks() []string {
	var edited []string
	benchmarks.built.Range(func(k, v any) bool {
		key := k.(benchKey)
		set, err := v.(func() (map[string]benchCircuit, error))()
		if err != nil {
			return true
		}
		fresh, err := key.build()
		if err != nil {
			edited = append(edited, fmt.Sprintf("%+v: fresh build: %v", key, err))
			return true
		}
		for name, c := range set {
			switch {
			case cache.NetlistSum(c.nl) != c.sum:
				edited = append(edited, fmt.Sprintf("%s %+v: edited after its build", name, key))
			case fresh[name].sum != c.sum:
				edited = append(edited, fmt.Sprintf("%s %+v: differs from a fresh build", name, key))
			}
		}
		return true
	})
	sort.Strings(edited)
	return edited
}

// TestBenchmarksBuildOnce: concurrent first requests for one circuit
// get the same netlist from a single build, and the CEP cores of one
// class share one build of their suite. Meant for -race.
func TestBenchmarksBuildOnce(t *testing.T) {
	for _, names := range [][]string{{"c432"}, {"AES", "DES", "FIR"}} {
		var builds atomic.Int32
		memo := &circuitMemo{build: func(k benchKey) (map[string]benchCircuit, error) {
			builds.Add(1)
			return k.build()
		}}
		const callers = 8
		got := make([]*netlist.Netlist, callers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				c, err := memo.get(names[i%len(names)], 0.1)
				if err != nil {
					t.Error(err)
					return
				}
				got[i] = c.nl
			}()
		}
		close(start)
		wg.Wait()
		if n := builds.Load(); n != 1 {
			t.Errorf("%v: %d builds for %d concurrent requests, want 1", names, n, callers)
		}
		for i, nl := range got {
			if nl == nil || nl != got[i%len(names)] {
				t.Errorf("%v: request %d got netlist %p, request %d got %p", names, i, nl, i%len(names), got[i%len(names)])
			}
		}
	}
}

// TestWarmTablesAllocs bounds the allocations of a warm Table I plus
// Table III at scale 0.1 on one sweep worker (rilperf's tables-warm
// op): its eleven circuits and their digests come from the memo, so
// the op is 70 cache reads and the rendering. Synthesizing and
// digesting them on every run took about 29,200 allocations; the memo
// leaves about 8,400.
func TestWarmTablesAllocs(t *testing.T) {
	c, err := cache.Open(t.TempDir(), cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := AttackConfig{Timeout: time.Millisecond, Scale: 0.1, Seed: 1, Cache: c}
	tables := func() {
		if _, err := Table1(cfg, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := Table3(cfg); err != nil {
			t.Fatal(err)
		}
	}
	tables() // the cold fill
	cfg.Jobs = 1
	allocs := testing.AllocsPerRun(3, tables)
	t.Logf("warm Table I + Table III allocations at scale 0.1: %.0f", allocs)
	if allocs > 15000 {
		t.Errorf("a warm Table I + Table III allocates %.0f times, want at most 15000", allocs)
	}
}
