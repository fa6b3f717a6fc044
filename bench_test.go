// Benchmarks regenerating the paper's tables and figures at laptop
// scale. Every table and figure of the evaluation has a bench; run
//
//	go test -bench=. -benchmem
//
// The SAT experiments use short timeouts on scaled circuits — the
// published 5-day runs shrink to fractions of a second — so each
// bench reports the shape metrics (DIPs, timeout/solved, energies) via
// ReportMetric alongside wall-clock time.
package repro

import (
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/baselines"
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/lutsim"
	"repro/internal/netlist"
	"repro/internal/psca"
	"repro/internal/report"
)

const benchTimeout = 300 * time.Millisecond

func benchCircuit(b *testing.B, scale float64) *netlist.Netlist {
	b.Helper()
	prof, _ := circuit.ProfileByName("c7552")
	nl, err := prof.Synthesize(scale)
	if err != nil {
		b.Fatal(err)
	}
	return nl
}

// lockAttack locks with the given geometry and attacks with a short
// timeout, reporting DIPs and whether the run timed out (the paper's
// infinity).
func lockAttack(b *testing.B, orig *netlist.Netlist, blocks int, size core.Size) {
	b.Helper()
	var dips, timeouts int
	for i := 0; i < b.N; i++ {
		res, err := core.Lock(orig, core.Options{Blocks: blocks, Size: size, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		bound, err := res.ApplyKey(res.Key)
		if err != nil {
			b.Fatal(err)
		}
		oracle, err := attack.NewSimOracle(bound)
		if err != nil {
			b.Fatal(err)
		}
		ar, err := attack.SATAttack(res.Locked, res.KeyInputPos, oracle,
			attack.SATOptions{Timeout: benchTimeout})
		if err != nil {
			b.Fatal(err)
		}
		dips += ar.Iterations
		if ar.Status != attack.KeyFound {
			timeouts++
		}
	}
	b.ReportMetric(float64(dips)/float64(b.N), "DIPs/op")
	b.ReportMetric(float64(timeouts)/float64(b.N), "timeouts/op")
}

// --- Table I: SAT runtime vs block count and size on c7552 ----------

func BenchmarkTable1_2x2_1block(b *testing.B)  { lockAttack(b, benchCircuit(b, 0.1), 1, core.Size2x2) }
func BenchmarkTable1_2x2_5blocks(b *testing.B) { lockAttack(b, benchCircuit(b, 0.1), 5, core.Size2x2) }
func BenchmarkTable1_2x2_25blocks(b *testing.B) {
	lockAttack(b, benchCircuit(b, 0.1), 25, core.Size2x2)
}
func BenchmarkTable1_8x8_1block(b *testing.B)  { lockAttack(b, benchCircuit(b, 0.1), 1, core.Size8x8) }
func BenchmarkTable1_8x8_3blocks(b *testing.B) { lockAttack(b, benchCircuit(b, 0.1), 3, core.Size8x8) }
func BenchmarkTable1_8x8x8_1block(b *testing.B) {
	lockAttack(b, benchCircuit(b, 0.1), 1, core.Size8x8x8)
}
func BenchmarkTable1_8x8x8_3blocks(b *testing.B) {
	lockAttack(b, benchCircuit(b, 0.1), 3, core.Size8x8x8)
}

// --- Table II: LUT configuration sweep -------------------------------

func BenchmarkTable2_LUTConfiguration(b *testing.B) {
	cfg := lutsim.DefaultConfig()
	for i := 0; i < b.N; i++ {
		l := lutsim.New(cfg)
		for _, f := range logic.AllFunc2() {
			for _, rep := range l.Configure(f) {
				if rep.Error {
					b.Fatal("configuration write failed")
				}
			}
		}
	}
}

// --- Table III: per-benchmark SAT attacks and AppSAT -----------------

func table3Bench(b *testing.B, nl *netlist.Netlist) {
	b.Helper()
	lockAttack(b, nl, 1, core.Size8x8x8)
}

func BenchmarkTable3_b15(b *testing.B) {
	prof, _ := circuit.ProfileByName("b15")
	nl, err := prof.Synthesize(0.06)
	if err != nil {
		b.Fatal(err)
	}
	table3Bench(b, nl)
}

func BenchmarkTable3_s35932(b *testing.B) {
	prof, _ := circuit.ProfileByName("s35932")
	nl, err := prof.Synthesize(0.04)
	if err != nil {
		b.Fatal(err)
	}
	table3Bench(b, nl)
}

func BenchmarkTable3_s38584(b *testing.B) {
	prof, _ := circuit.ProfileByName("s38584")
	nl, err := prof.Synthesize(0.04)
	if err != nil {
		b.Fatal(err)
	}
	table3Bench(b, nl)
}

func BenchmarkTable3_b20(b *testing.B) {
	prof, _ := circuit.ProfileByName("b20")
	nl, err := prof.Synthesize(0.04)
	if err != nil {
		b.Fatal(err)
	}
	table3Bench(b, nl)
}

func BenchmarkTable3_AES(b *testing.B) {
	nl, err := circuit.AESRound(1)
	if err != nil {
		b.Fatal(err)
	}
	table3Bench(b, nl)
}

func BenchmarkTable3_SHA256(b *testing.B) {
	nl, err := circuit.SHA256Compress(1)
	if err != nil {
		b.Fatal(err)
	}
	table3Bench(b, nl)
}

func BenchmarkTable3_MD5(b *testing.B) {
	nl, err := circuit.MD5Steps(1)
	if err != nil {
		b.Fatal(err)
	}
	table3Bench(b, nl)
}

func BenchmarkTable3_GPS(b *testing.B) {
	nl, err := circuit.GPSCA(1, 8)
	if err != nil {
		b.Fatal(err)
	}
	table3Bench(b, nl)
}

func BenchmarkTable3_AppSAT_ScanEnable(b *testing.B) {
	nl, err := circuit.GPSCA(1, 8)
	if err != nil {
		b.Fatal(err)
	}
	fails := 0
	for i := 0; i < b.N; i++ {
		res, err := core.Lock(nl, core.Options{
			Blocks: 1, Size: core.Size8x8x8, Seed: int64(i + 1), ScanEnable: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		sv, err := res.ScanView()
		if err != nil {
			b.Fatal(err)
		}
		svBound, err := sv.BindInputs(res.KeyInputPos, res.Key)
		if err != nil {
			b.Fatal(err)
		}
		oracle, err := attack.NewSimOracle(svBound)
		if err != nil {
			b.Fatal(err)
		}
		opt := attack.DefaultAppSAT()
		opt.Timeout = benchTimeout
		opt.MaxRounds = 8
		ar, err := attack.AppSAT(res.Locked, res.KeyInputPos, oracle, opt)
		if err != nil {
			b.Fatal(err)
		}
		broken := false
		if ar.Status == attack.KeyFound {
			fBound, err := res.ApplyKey(res.Key)
			if err != nil {
				b.Fatal(err)
			}
			funcOracle, err := attack.NewSimOracle(fBound)
			if err != nil {
				b.Fatal(err)
			}
			e, err := attack.VerifyKey(res.Locked, res.KeyInputPos, ar.Key, funcOracle, 4, 1)
			if err != nil {
				b.Fatal(err)
			}
			broken = e == 0
		}
		if !broken {
			fails++
		}
	}
	b.ReportMetric(float64(fails)/float64(b.N), "appsat-failures/op")
}

// --- Table IV: MRAM LUT energies --------------------------------------

func BenchmarkTable4_EnergyTable(b *testing.B) {
	cfg := lutsim.DefaultConfig()
	var read, write, standby float64
	for i := 0; i < b.N; i++ {
		rows, err := lutsim.EnergyTableFrom(lutsim.New(cfg), logic.AND)
		if err != nil {
			b.Fatal(err)
		}
		read, write, standby = rows[2].Read, rows[2].Write, rows[2].Standby
	}
	b.ReportMetric(read*1e15, "read-fJ")
	b.ReportMetric(write*1e15, "write-fJ")
	b.ReportMetric(standby*1e18, "standby-aJ")
}

// --- Table V: attack-resilience matrix --------------------------------

func BenchmarkTable5_Matrix(b *testing.B) {
	cfg := report.AttackConfig{Timeout: benchTimeout, Scale: 0.1, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := report.Table5(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 1: MESO encoding vs LUT-2 re-encoding -----------------------

func fig1Bench(b *testing.B, lut2 bool) {
	b.Helper()
	orig, err := netlist.Random(netlist.RandomProfile{
		Name: "fig1", Inputs: 16, Outputs: 8, Gates: 250, Locality: 0.7,
	}, 3)
	if err != nil {
		b.Fatal(err)
	}
	var dips int
	for i := 0; i < b.N; i++ {
		var l *baselines.Locked
		var err error
		if lut2 {
			l, err = baselines.MESOAsLUT2(orig, 6, int64(i+1))
		} else {
			l, err = baselines.MESOLock(orig, 6, int64(i+1))
		}
		if err != nil {
			b.Fatal(err)
		}
		bound, err := l.Netlist.BindInputs(l.KeyPos, l.Key)
		if err != nil {
			b.Fatal(err)
		}
		oracle, err := attack.NewSimOracle(bound)
		if err != nil {
			b.Fatal(err)
		}
		ar, err := attack.SATAttack(l.Netlist, l.KeyPos, oracle, attack.SATOptions{Timeout: 10 * time.Second})
		if err != nil {
			b.Fatal(err)
		}
		if ar.Status != attack.KeyFound {
			b.Fatal("fig1 attack should converge at this scale")
		}
		dips += ar.Iterations
	}
	b.ReportMetric(float64(dips)/float64(b.N), "DIPs/op")
}

func BenchmarkFig1_MESOEncoding(b *testing.B) { fig1Bench(b, false) }
func BenchmarkFig1_LUT2Encoding(b *testing.B) { fig1Bench(b, true) }

// --- Fig. 5: transient waveform ---------------------------------------

func BenchmarkFig5_Transient(b *testing.B) {
	cfg := lutsim.DefaultConfig()
	for i := 0; i < b.N; i++ {
		if _, err := lutsim.Transient(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 6: Monte-Carlo sweep ----------------------------------------

func BenchmarkFig6_MonteCarlo100(b *testing.B) {
	cfg := lutsim.DefaultConfig()
	var overlap float64
	errs, ops := 0, 0
	for i := 0; i < b.N; i++ {
		res := lutsim.MonteCarlo(cfg, logic.AND, 100, int64(i+1))
		errs += res.ReadErrors + res.WriteErrors
		ops += res.ReadOps + res.WriteOps
		overlap = res.PowerOverlap()
	}
	// The paper reports <0.01% read/write errors; tail PV draws may
	// fail occasionally across many seeds — assert the rate, not zero.
	rate := float64(errs) / float64(ops)
	if rate > 0.001 {
		b.Fatalf("PV error rate %.5f exceeds 0.1%%", rate)
	}
	b.ReportMetric(rate*100, "pv-error-%")
	b.ReportMetric(overlap, "power-overlap-sigma")
}

// --- P-SCA: CPA on SRAM vs MRAM ---------------------------------------

func BenchmarkPSCA_CPA_SRAM(b *testing.B) {
	cfg := lutsim.DefaultConfig()
	s := lutsim.NewSRAM(cfg)
	s.Configure(logic.NAND)
	recovered := 0
	for i := 0; i < b.N; i++ {
		traces := psca.CollectSRAM(s, 400, 0.05, int64(i+1))
		res, err := psca.CPA(traces)
		if err != nil {
			b.Fatal(err)
		}
		if res.Recovered(logic.NAND) {
			recovered++
		}
	}
	b.ReportMetric(float64(recovered)/float64(b.N), "key-recovery/op")
}

func BenchmarkPSCA_CPA_MRAM(b *testing.B) {
	cfg := lutsim.DefaultConfig()
	l := lutsim.New(cfg)
	l.Configure(logic.NAND)
	recovered := 0
	for i := 0; i < b.N; i++ {
		traces := psca.CollectMRAM(l, 400, 0.05, int64(i+1))
		res, err := psca.CPA(traces)
		if err != nil {
			b.Fatal(err)
		}
		if res.Recovered(logic.NAND) {
			recovered++
		}
	}
	b.ReportMetric(float64(recovered)/float64(b.N), "key-recovery/op")
}

// --- Ablation & extension benches --------------------------------------

func BenchmarkAblation_Geometries(b *testing.B) {
	cfg := report.AttackConfig{Timeout: benchTimeout, Scale: 0.1, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := report.Ablation(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOneHot_RoutingOnly(b *testing.B) {
	orig, err := netlist.Random(netlist.RandomProfile{
		Name: "oh", Inputs: 16, Outputs: 12, Gates: 300, Locality: 0.3,
	}, 3)
	if err != nil {
		b.Fatal(err)
	}
	l, net, err := baselines.RoutingLock(orig, 8, 4)
	if err != nil {
		b.Fatal(err)
	}
	bound, err := l.Netlist.BindInputs(l.KeyPos, l.Key)
	if err != nil {
		b.Fatal(err)
	}
	oracle, err := attack.NewSimOracle(bound)
	if err != nil {
		b.Fatal(err)
	}
	hints := []attack.RoutingHint{attack.HintFromRoutingNetwork(net.Width, net.InputNames, net.OutputNames, net.KeyPos)}
	b.ResetTimer()
	solved := 0
	for i := 0; i < b.N; i++ {
		res, err := attack.SATAttackOneHot(l.Netlist, l.KeyPos, hints, oracle,
			attack.SATOptions{Timeout: 10 * time.Second})
		if err != nil {
			b.Fatal(err)
		}
		if res.SAT.Status == attack.KeyFound && res.Realizable {
			solved++
		}
	}
	b.ReportMetric(float64(solved)/float64(b.N), "solved/op")
}

func BenchmarkSensitize_XORvsRIL(b *testing.B) {
	cfg := report.AttackConfig{Timeout: 5 * time.Second, Scale: 0.1, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := report.Sensitization(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDynamicMorphing_Attack(b *testing.B) {
	cfg := report.AttackConfig{Timeout: benchTimeout, Scale: 0.08, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := report.DynamicMorphing(cfg, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Substrate micro-benchmarks ---------------------------------------

func BenchmarkTseitin_EncodeC7552(b *testing.B) {
	nl := benchCircuit(b, 0.25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := cnf.NewEncoder()
		if _, err := enc.Encode(nl, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMorph_Epoch(b *testing.B) {
	nl := benchCircuit(b, 0.1)
	res, err := core.Lock(nl, core.Options{Blocks: 2, Size: core.Size8x8x8, Seed: 1, ScanEnable: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res.Morph(int64(i+1), 8)
	}
}
