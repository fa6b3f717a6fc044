package report

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/attack"
	"repro/internal/baselines"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/lutsim"
	"repro/internal/mtj"
	"repro/internal/netlist"
	"repro/internal/psca"
	"repro/internal/sweep"
)

// Fig1 reproduces the Fig. 1 observation: re-encoding a MESO
// polymorphic gate (8 gates + 7 MUXes, 3 key bits) as a 2-input LUT
// (3 MUXes, 4 key bits) significantly reduces SAT-attack runtime even
// though the key space grows.
func Fig1(cfg AttackConfig, nGates int) (*Table, error) {
	orig, err := netlist.Random(netlist.RandomProfile{
		Name: "fig1", Inputs: 16, Outputs: 8,
		Gates: int(2000 * cfg.Scale), Locality: 0.7,
	}, cfg.Seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Fig. 1: SAT-attack runtime, MESO encoding vs LUT-2 re-encoding (same gates)",
		Header: []string{"encoding", "key bits", "extra gates", "DIPs", "runtime (s)"},
	}
	run := func(l *baselines.Locked, err error) error {
		if err != nil {
			return err
		}
		bound, err := l.Netlist.BindInputs(l.KeyPos, l.Key)
		if err != nil {
			return err
		}
		oracle, err := attack.NewSimOracle(bound)
		if err != nil {
			return err
		}
		res, err := attack.SATAttack(l.Netlist, l.KeyPos, oracle, attack.SATOptions{Timeout: cfg.Timeout})
		if err != nil {
			return err
		}
		rt := fmtDuration(res.Elapsed, res.Status != attack.KeyFound)
		t.AddRow(l.Scheme,
			fmt.Sprintf("%d", l.KeyBits()),
			fmt.Sprintf("%d", l.Netlist.NumLogicGates()-orig.NumLogicGates()),
			fmt.Sprintf("%d", res.Iterations),
			rt)
		return nil
	}
	if err := run(baselines.MESOLock(orig, nGates, cfg.Seed)); err != nil {
		return nil, err
	}
	if err := run(baselines.MESOAsLUT2(orig, nGates, cfg.Seed)); err != nil {
		return nil, err
	}
	return t, nil
}

// Table5 reproduces the paper's comparison matrix: which schemes
// resist which attacks. Every cell is measured by actually running the
// attack on a small locked instance (not transcribed from the paper).
// Marks: "Y" resilient, "x" broken, "-" not applicable.
func Table5(cfg AttackConfig) (*Table, error) {
	gates := int(2500 * cfg.Scale)
	if gates < 500 {
		gates = 500 // two 8x8x8 blocks need enough compatible gates
	}
	orig, err := netlist.Random(netlist.RandomProfile{
		Name: "tbl5", Inputs: 14, Outputs: 6,
		Gates: gates, Locality: 0.6,
	}, cfg.Seed)
	if err != nil {
		return nil, err
	}

	type scheme struct {
		name string
		lock *baselines.Locked
		ril  *core.Result // non-nil for the proposed scheme
		mram bool         // key storage is complementary-MRAM
	}
	var schemes []scheme
	addErr := func(name string, l *baselines.Locked, err error, mram bool) error {
		if err != nil {
			return fmt.Errorf("report: %s: %w", name, err)
		}
		schemes = append(schemes, scheme{name: name, lock: l, mram: mram})
		return nil
	}
	if l, err := baselines.SFLLHD(orig, 12, 0, cfg.Seed); err != nil {
		return nil, err
	} else if err := addErr("SFLL-HD", l, nil, false); err != nil {
		return nil, err
	}
	if l, err := baselines.MESOLock(orig, 4, cfg.Seed); err != nil {
		return nil, err
	} else if err := addErr("MESO", l, nil, false); err != nil {
		return nil, err
	}
	if l, err := baselines.CASLock(orig, 8, cfg.Seed); err != nil {
		return nil, err
	} else if err := addErr("CAS-Lock", l, nil, false); err != nil {
		return nil, err
	}
	if l, err := baselines.LUTLock(orig, 6, cfg.Seed); err != nil {
		return nil, err
	} else if err := addErr("LUT-lock", l, nil, false); err != nil {
		return nil, err
	}
	if l, err := baselines.XORLock(orig, 10, cfg.Seed); err != nil {
		return nil, err
	} else if err := addErr("XOR", l, nil, false); err != nil {
		return nil, err
	}
	// The proposed scheme, with scan-enable obfuscation.
	rilRes, err := core.Lock(orig, core.Options{
		Blocks: 2, Size: core.Size8x8x8, Seed: cfg.Seed, ScanEnable: true,
	})
	if err != nil {
		return nil, err
	}
	schemes = append(schemes, scheme{
		name: "RIL (proposed)",
		lock: &baselines.Locked{
			Scheme:  "ril",
			Netlist: rilRes.Locked,
			KeyPos:  rilRes.KeyInputPos,
			Key:     rilRes.Key,
		},
		ril:  rilRes,
		mram: true,
	})

	t := &Table{
		Title:  "Table V: measured attack resilience (Y resilient, x broken, - n/a)",
		Header: []string{"attack"},
		Notes: []string{
			fmt.Sprintf("scale=%.2f timeout=%v; every cell is a live attack run", cfg.Scale, cfg.Timeout),
			"SAT resilience = timeout or exponential DIP growth in the key length",
		},
	}
	for _, s := range schemes {
		t.Header = append(t.Header, s.name)
	}

	oracleOf := func(s scheme) (attack.Oracle, error) {
		bound, err := s.lock.Netlist.BindInputs(s.lock.KeyPos, s.lock.Key)
		if err != nil {
			return nil, err
		}
		return attack.NewSimOracle(bound)
	}

	// Row: SAT attack.
	satRow := []string{"SAT attack"}
	for _, s := range schemes {
		oracle, err := oracleOf(s)
		if err != nil {
			return nil, err
		}
		res, err := attack.SATAttack(s.lock.Netlist, s.lock.KeyPos, oracle, attack.SATOptions{Timeout: cfg.Timeout})
		if err != nil {
			return nil, err
		}
		// Resilient when the attack times out or the DIP count grows
		// exponentially in the key width (point-function behaviour).
		threshold := 1 << min(s.lock.KeyBits()/2, 20)
		resilient := res.Status != attack.KeyFound || res.Iterations >= threshold
		satRow = append(satRow, mark(resilient))
	}
	t.AddRow(satRow...)

	// Row: AppSAT (against the scan oracle for the proposed scheme).
	appRow := []string{"AppSAT"}
	for _, s := range schemes {
		var oracle attack.Oracle
		var err error
		if s.ril != nil {
			sv, err2 := s.ril.ScanView()
			if err2 != nil {
				return nil, err2
			}
			svBound, err2 := sv.BindInputs(s.ril.KeyInputPos, s.ril.Key)
			if err2 != nil {
				return nil, err2
			}
			oracle, err = attack.NewSimOracle(svBound)
		} else {
			oracle, err = oracleOf(s)
		}
		if err != nil {
			return nil, err
		}
		opt := attack.DefaultAppSAT()
		opt.Timeout = cfg.Timeout
		opt.MaxRounds = 16
		ar, err := attack.AppSAT(s.lock.Netlist, s.lock.KeyPos, oracle, opt)
		if err != nil {
			return nil, err
		}
		broken := false
		if ar.Status == attack.KeyFound {
			// Point-function corruption is a needle random sampling
			// misses; require a SAT proof that the recovered key's
			// circuit equals the activated one.
			cand, err := s.lock.Netlist.BindInputs(s.lock.KeyPos, ar.Key)
			if err != nil {
				return nil, err
			}
			truth, err := s.lock.Netlist.BindInputs(s.lock.KeyPos, s.lock.Key)
			if err != nil {
				return nil, err
			}
			eq, _, err := attack.EquivalentSAT(cand, truth, cfg.Timeout)
			if err != nil {
				eq = false // undecided: attacker cannot confirm either
			}
			broken = eq
		}
		appRow = append(appRow, mark(!broken))
	}
	t.AddRow(appRow...)

	// Row: power side channel — CPA on the scheme's key-storage cell
	// technology (complementary MRAM for the proposed scheme, CMOS/SRAM
	// for the rest).
	pscaRow := []string{"Power side channel"}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, s := range schemes {
		var traces []psca.Trace
		if s.mram {
			l := lutsim.Sample(lutsim.DefaultConfig(), mtj.DefaultVariation(), lutsim.DefaultMOSVariation(), rng)
			l.Configure(logic.AND)
			traces = psca.CollectMRAM(l, 300, 0.05, rng.Int63())
		} else {
			sr := lutsim.SampleSRAM(lutsim.DefaultConfig(), lutsim.DefaultMOSVariation(), rng)
			sr.Configure(logic.AND)
			traces = psca.CollectSRAM(sr, 300, 0.05, rng.Int63())
		}
		cpa, err := psca.CPA(traces)
		if err != nil {
			return nil, err
		}
		pscaRow = append(pscaRow, mark(!cpa.Recovered(logic.AND)))
	}
	t.AddRow(pscaRow...)

	// Row: removal attack — the structural bypass strips key-dependent
	// flip logic; the scheme is broken when the stripped circuit is
	// provably equivalent to the activated oracle.
	remRow := []string{"Removal attack"}
	for _, s := range schemes {
		stripped, err := attack.StructuralRemoval(s.lock.Netlist, s.lock.KeyPos, cfg.Seed)
		if err != nil {
			return nil, err
		}
		bound, err := s.lock.Netlist.BindInputs(s.lock.KeyPos, s.lock.Key)
		if err != nil {
			return nil, err
		}
		eq, _, err := attack.EquivalentSAT(stripped, bound, cfg.Timeout)
		if err != nil {
			// Equivalence undecided within the timeout: the attacker
			// cannot confirm a recovery either.
			eq = false
		}
		remRow = append(remRow, mark(!eq))
	}
	t.AddRow(remRow...)

	// Row: ScanSAT — only meaningful for scan-obfuscated designs.
	scanRow := []string{"ScanSAT"}
	for _, s := range schemes {
		if s.ril == nil {
			scanRow = append(scanRow, "-")
			continue
		}
		sv, err := s.ril.ScanView()
		if err != nil {
			return nil, err
		}
		svBound, err := sv.BindInputs(s.ril.KeyInputPos, s.ril.Key)
		if err != nil {
			return nil, err
		}
		scanOracle, err := attack.NewSimOracle(svBound)
		if err != nil {
			return nil, err
		}
		funcOracle, err := oracleOf(s)
		if err != nil {
			return nil, err
		}
		var luts []string
		for _, blk := range s.ril.Blocks {
			luts = append(luts, blk.LUTOut...)
		}
		sr, err := attack.ScanSAT(s.lock.Netlist, s.lock.KeyPos, luts, scanOracle, funcOracle,
			attack.SATOptions{Timeout: cfg.Timeout})
		if err != nil {
			return nil, err
		}
		scanRow = append(scanRow, mark(sr.Defeated))
	}
	t.AddRow(scanRow...)

	// Row: shift-and-scan — the proposed scheme keeps key registers on
	// a separate secure-cell chain with a gated scan-out (§IV-C); the
	// attack model measures how many key bits leak beyond guessing.
	shiftRow := []string{"Shift and scan"}
	for _, s := range schemes {
		if s.ril == nil {
			shiftRow = append(shiftRow, "-")
			continue
		}
		learned, err := core.ShiftAndScanAttack(s.ril, cfg.Seed)
		if err != nil {
			return nil, err
		}
		shiftRow = append(shiftRow, mark(learned == 0))
	}
	t.AddRow(shiftRow...)

	return t, nil
}

func mark(resilient bool) string {
	if resilient {
		return "Y"
	}
	return "x"
}

// DIPGrowth measures SAT-attack DIP counts versus key width for a
// point-function scheme and random locking — the exponential-vs-linear
// contrast behind the paper's SAT-hardness discussion.
func DIPGrowth(cfg AttackConfig, widths []int) (*Table, error) {
	orig, err := netlist.Random(netlist.RandomProfile{
		Name: "dip", Inputs: 16, Outputs: 6, Gates: 120, Locality: 0.6,
	}, cfg.Seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "DIP growth vs key width: point function (SARLock) vs random XOR locking",
		Header: []string{"key bits", "sarlock DIPs", "xor DIPs"},
	}
	sum := cache.NetlistSum(orig)
	// One sweep job per (width, scheme) cell.
	type lockFn func() (*baselines.Locked, error)
	var jobs []sweep.Job
	for _, w := range widths {
		w := w
		for _, mk := range []struct {
			scheme string
			lock   lockFn
		}{
			{"sarlock", func() (*baselines.Locked, error) { return baselines.SARLock(orig, w, cfg.Seed) }},
			{"xor", func() (*baselines.Locked, error) { return baselines.XORLock(orig, w, cfg.Seed) }},
		} {
			mk := mk
			jobs = append(jobs, sweep.Job{
				Name: fmt.Sprintf("dip/%s/%d", mk.scheme, w),
				Seed: cfg.Seed,
				// The cell runs under its own fixed 30s solver budget, so
				// the key pins that too (cellKey already folds cfg.Timeout,
				// which this cell ignores; over-keying only costs hits).
				CacheKey: cellKey(cfg, "dip-growth-cell", sum,
					map[string]any{"scheme": mk.scheme, "width": w, "solver_timeout": "30s"}),
				Run: func(ctx context.Context, _ int64) (any, error) {
					l, err := mk.lock()
					if err != nil {
						return nil, err
					}
					bound, err := l.Netlist.BindInputs(l.KeyPos, l.Key)
					if err != nil {
						return nil, err
					}
					oracle, err := attack.NewSimOracle(bound)
					if err != nil {
						return nil, err
					}
					res, err := attack.SATAttack(l.Netlist, l.KeyPos, oracle,
						attack.SATOptions{Timeout: 30 * time.Second, Context: ctx})
					if err != nil {
						return nil, err
					}
					return fmt.Sprintf("%d", res.Iterations), nil
				},
			})
		}
	}
	results, err := runSweep(cfg, "dipgrowth", jobs)
	if err != nil {
		return nil, err
	}
	for i, w := range widths {
		ril, err := cellValue[string](results[2*i])
		if err != nil {
			return nil, err
		}
		xor, err := cellValue[string](results[2*i+1])
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", w), ril, xor)
	}
	return t, nil
}
