package report

import (
	"context"
	"fmt"

	"repro/internal/attack"
	"repro/internal/baselines"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/sweep"
)

// Ablation isolates the contribution of each RIL-Block ingredient to
// SAT-hardness (the design choices §III-A argues for): LUTs alone,
// input routing alone, and the full block, at equal LUT count.
func Ablation(cfg AttackConfig) (*Table, error) {
	c7552, err := benchmarks.get("c7552", cfg.Scale)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Ablation: which RIL-Block ingredient creates the SAT-hardness (8 LUTs each)",
		Header: []string{"geometry", "key bits", "DIPs", "runtime (s)", "result"},
		Notes: []string{
			fmt.Sprintf("scale=%.2f timeout=%v; one block (or 8 plain LUTs) per row", cfg.Scale, cfg.Timeout),
		},
	}
	rows := []struct {
		label  string
		blocks int
		size   core.Size
	}{
		{"8 x lut1 (LUTs only, [12])", 8, core.Size{K: 1}},
		{"lut8 (grouped LUTs, no routing)", 1, core.Size{K: 8}},
		{"8x8 (input routing)", 1, core.Size8x8},
		{"8x8x8 (routing both sides)", 1, core.Size8x8x8},
		{"3 x 8x8x8 (paper operating point)", 3, core.Size8x8x8},
	}
	// One sweep job per geometry row; a lock failure renders the row
	// as n/a rather than failing the table.
	tc := cfg.cells()
	var jobs []sweep.Job
	for _, r := range rows {
		jobs = append(jobs, tc.cell("ablation/"+r.label, "ablation-cell", c7552.sum,
			map[string]any{"blocks": r.blocks, "size": r.size.String()},
			func(ctx context.Context) (any, error) {
				res, err := core.Lock(c7552.nl, core.Options{Blocks: r.blocks, Size: r.size, Seed: cfg.Seed})
				if err != nil {
					return []string{r.label, "n/a", "n/a", "n/a", "n/a"}, nil
				}
				ar, err := cfg.satAttack(ctx, res.Locked, res.KeyInputPos, res.Key)
				if err != nil {
					return nil, err
				}
				return []string{r.label,
					fmt.Sprintf("%d", res.KeyBits()),
					fmt.Sprintf("%d", ar.Iterations),
					fmtDuration(ar.Elapsed, ar.Status != attack.KeyFound),
					ar.Status.String()}, nil
			}))
	}
	return rowTable(t, cfg, jobs)
}

// OneHotEncoding reproduces the §IV-B pre-processing comparison: the
// one-layer linear (one-hot crossbar) re-encoding of routing networks
// cracks routing-only obfuscation (FullLock/InterLock lineage, [10],
// [11]) but leaves RIL-Blocks hard — the LUT layer's coupling survives
// the re-encoding.
func OneHotEncoding(cfg AttackConfig) (*Table, error) {
	orig, err := netlist.Random(netlist.RandomProfile{
		Name: "onehot", Inputs: 16, Outputs: 12,
		Gates: int(3000 * cfg.Scale), Locality: 0.3,
	}, cfg.Seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "One-layer one-hot re-encoding (SIV-B): routing-only vs RIL-Blocks",
		Header: []string{"scheme", "attack", "DIPs", "result", "key correct"},
		Notes: []string{
			fmt.Sprintf("timeout=%v; 'key correct' verified against the oracle", cfg.Timeout),
		},
	}

	// The two locks and their oracles are built once (cheap,
	// deterministic); the four attacks — the expensive part — run as
	// sweep jobs. The plain and one-hot attacks of each scheme share its
	// oracle, which SimOracle's internal locking makes safe.
	const width = 8 // the routing-only lock's crossbar
	rl, net, err := baselines.RoutingLock(orig, width, cfg.Seed)
	if err != nil {
		return nil, err
	}
	rlOracle, err := activate(rl.Netlist, rl.KeyPos, rl.Key)
	if err != nil {
		return nil, err
	}
	rilOpts := core.Options{Blocks: 2, Size: core.Size8x8x8, Seed: cfg.Seed}
	ril, err := core.Lock(orig, rilOpts)
	if err != nil {
		return nil, err
	}
	rilOracle, err := activate(ril.Locked, ril.KeyInputPos, ril.Key)
	if err != nil {
		return nil, err
	}
	sum := cache.NetlistSum(orig)
	tc := cfg.cells()
	var jobs []sweep.Job
	for _, s := range []struct {
		scheme, label string
		lock          any // the lock's parameters, for the cell keys
		nl            *netlist.Netlist
		keyPos        []int
		oracle        *attack.SimOracle
		hints         []attack.RoutingHint
	}{
		{"routing", "routing-only 8x8", map[string]any{"width": width}, rl.Netlist, rl.KeyPos, rlOracle,
			[]attack.RoutingHint{attack.HintFromRoutingNetwork(net.Width, net.InputNames, net.OutputNames, net.KeyPos)}},
		{"ril", "RIL 2x 8x8x8", rilOpts, ril.Locked, ril.KeyInputPos, rilOracle, attack.HintsFromRIL(ril)},
	} {
		row := func(label string, res *attack.SATResult, key []bool) []string {
			return []string{s.label, label, fmt.Sprintf("%d", res.Iterations), res.Status.String(),
				verdict(s.nl, s.keyPos, key, res.Status, s.oracle)}
		}
		opts := func(attack string) map[string]any {
			return map[string]any{"scheme": s.scheme, "lock": s.lock, "attack": attack}
		}
		jobs = append(jobs,
			tc.cell("onehot/"+s.scheme+"/plain", "onehot-cell", sum, opts("plain"), func(ctx context.Context) (any, error) {
				plain, err := attack.SATAttack(s.nl, s.keyPos, s.oracle, cfg.satOptions(ctx))
				if err != nil {
					return nil, err
				}
				return row("plain SAT", plain, plain.Key), nil
			}),
			tc.cell("onehot/"+s.scheme+"/onehot", "onehot-cell", sum, opts("onehot"), func(ctx context.Context) (any, error) {
				oh, err := attack.SATAttackOneHot(s.nl, s.keyPos, s.hints, s.oracle, cfg.satOptions(ctx))
				if err != nil {
					return nil, err
				}
				key := oh.Key
				if !oh.Realizable {
					key = nil
				}
				return row("one-hot SAT", oh.SAT, key), nil
			}))
	}
	return rowTable(t, cfg, jobs)
}

// Sensitization compares the key-sensitization attack (the paper's
// reference [1] family) on XOR locking vs RIL-Blocks: golden patterns
// leak isolated key bits; the MUX lattice entangles every RIL key bit
// with the rest.
func Sensitization(cfg AttackConfig) (*Table, error) {
	orig, err := netlist.Random(netlist.RandomProfile{
		Name: "sens", Inputs: 16, Outputs: 8,
		Gates: int(1500 * cfg.Scale), Locality: 0.6,
	}, cfg.Seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Key sensitization: golden-pattern leakage, XOR locking vs RIL-Blocks",
		Header: []string{"scheme", "key bits", "resolved", "oracle queries"},
	}
	sum := cache.NetlistSum(orig)
	tc := cfg.cells()
	var jobs []sweep.Job
	for _, s := range []struct {
		label, scheme string
		params        baselines.Params
		budget        int // Sensitize's per-bit budget
	}{
		{"XOR lock", "xor", baselines.Params{KeyBits: 10, Seed: cfg.Seed}, 16},
		{"RIL 8x8", "ril", baselines.Params{Size: "8x8", Blocks: 1, Seed: cfg.Seed}, 4},
	} {
		jobs = append(jobs, tc.cell("sensitize/"+s.scheme, "sensitize-cell", sum,
			map[string]any{"scheme": s.scheme, "lock": s.params, "budget": s.budget, "sensitize": attack.SensitizeVersion},
			func(context.Context) (any, error) {
				l, _, err := baselines.LockScheme(s.scheme, orig, s.params)
				if err != nil {
					return nil, err
				}
				oracle, err := activate(l.Netlist, l.KeyPos, l.Key)
				if err != nil {
					return nil, err
				}
				r, err := attack.Sensitize(l.Netlist, l.KeyPos, oracle, s.budget, cfg.Timeout)
				if err != nil {
					return nil, err
				}
				return []string{s.label, fmt.Sprintf("%d", l.KeyBits()),
					fmt.Sprintf("%d", r.Resolved), fmt.Sprintf("%d", r.Queries)}, nil
			}))
	}
	return rowTable(t, cfg, jobs)
}

// verdict renders whether a recovered key matches the oracle. The
// 8×64 validation patterns run against a private clone of the attack
// oracle, never the oracle itself: the attack oracles here are shared
// across sweep jobs, and their Queries() counters must keep reporting
// attack queries only (pinned by TestVerdictLeavesAttackOracleCounts).
func verdict(locked *netlist.Netlist, keyPos []int, key []bool, status attack.Status, oracle attack.Oracle) string {
	if status != attack.KeyFound || key == nil {
		return "-"
	}
	vo := oracle
	if so, ok := oracle.(*attack.SimOracle); ok {
		clone, err := so.Clone()
		if err != nil {
			return "no"
		}
		vo = clone
	}
	e, err := attack.VerifyKey(locked, keyPos, key, vo, 8, 1)
	if err != nil || e > 0 {
		return "no"
	}
	return "yes"
}

// DynamicMorphing runs the SAT attack against a device that morphs
// every `epochQueries` oracle queries, reporting whether the attack
// obtained a functionally correct key (the paper's ultimate dynamic-
// obfuscation claim, §IV-B).
func DynamicMorphing(cfg AttackConfig, epochQueries int) (*Table, error) {
	c7552, err := benchmarks.get("c7552", cfg.Scale)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Dynamic morphing vs SAT attack (scan-mode oracle morphs during the attack)",
		Header: []string{"mode", "DIPs", "oracle queries", "epochs", "result", "functional key?"},
	}

	lock := core.Options{Blocks: 1, Size: core.Size8x8, Seed: cfg.Seed, ScanEnable: true}
	tc := cfg.cells()
	var jobs []sweep.Job
	for _, m := range []struct {
		oracle, label string
		epoch         int // queries per morph epoch; 0 = the static scan oracle
	}{
		{"static", "static scan oracle", 0},
		{"morphing", fmt.Sprintf("morphing every %d queries", epochQueries), epochQueries},
	} {
		jobs = append(jobs, tc.cell("dynamic/"+m.oracle, "dynamic-morphing-cell", c7552.sum,
			map[string]any{"lock": lock, "epoch_queries": m.epoch},
			func(ctx context.Context) (any, error) {
				res, err := core.Lock(c7552.nl, lock)
				if err != nil {
					return nil, err
				}
				var oracle attack.Oracle
				var dyn *core.DynamicOracle
				if m.epoch > 0 {
					if dyn, err = core.NewDynamicOracle(res, m.epoch, cfg.Seed); err != nil {
						return nil, err
					}
					oracle = dyn
				} else {
					sv, err := res.ScanView()
					if err != nil {
						return nil, err
					}
					if oracle, err = activate(sv, res.KeyInputPos, res.Key); err != nil {
						return nil, err
					}
				}
				ar, err := attack.SATAttack(res.Locked, res.KeyInputPos, oracle, cfg.satOptions(ctx))
				if err != nil {
					return nil, err
				}
				// Snapshot before key validation: the column must report
				// what the attack spent, not the validation patterns
				// (which run against a separate functional oracle anyway).
				attackQueries := oracle.Queries()
				funcKey := "no"
				if ar.Status == attack.KeyFound {
					e, err := functionalError(res, ar.Key, cfg.Seed)
					if err != nil {
						return nil, err
					}
					if e == 0 {
						funcKey = "yes"
					}
				}
				epochs := 0
				if dyn != nil {
					epochs = dyn.Epochs()
				}
				return []string{m.label, fmt.Sprintf("%d", ar.Iterations), fmt.Sprintf("%d", attackQueries),
					fmt.Sprintf("%d", epochs), ar.Status.String(), funcKey}, nil
			}))
	}
	return rowTable(t, cfg, jobs)
}
