package report

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/opt"
	"repro/internal/sta"
)

// PPATable measures the circuit-level cost of RIL-Block insertion on
// c7552: gate count, critical-path delay (technology delay model),
// transistor-count area and a switching-activity power proxy, for the
// paper's configurations.
func PPATable(cfg AttackConfig) (*Table, error) {
	c7552, err := benchmarks.get("c7552", cfg.Scale)
	if err != nil {
		return nil, err
	}
	base, err := sta.Measure(c7552.nl, cfg.Seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "PPA overhead of RIL-Block insertion (c7552, technology delay model)",
		Header: []string{"config", "gates", "delay", "area (T)", "power proxy",
			"Δdelay", "Δarea", "Δpower"},
		Notes: []string{fmt.Sprintf("scale=%.2f; Δ columns relative to the unlocked circuit", cfg.Scale)},
	}
	t.AddRow("original",
		fmt.Sprintf("%d", base.Gates),
		fmt.Sprintf("%.1f", base.Delay),
		fmt.Sprintf("%d", base.Area),
		fmt.Sprintf("%.1f", base.PowerProxy),
		"-", "-", "-")

	configs := []struct {
		label  string
		blocks int
		size   core.Size
	}{
		{"3 x 8x8x8", 3, core.Size8x8x8},
		{"75 x 2x2", 75, core.Size2x2},
		{"5 x 8x8", 5, core.Size8x8},
	}
	addMeasured := func(label string, nl *netlist.Netlist) error {
		m, err := sta.Measure(nl, cfg.Seed)
		if err != nil {
			return err
		}
		dd, da, dp := sta.Overhead(base, m)
		t.AddRow(label,
			fmt.Sprintf("%d", m.Gates),
			fmt.Sprintf("%.1f", m.Delay),
			fmt.Sprintf("%d", m.Area),
			fmt.Sprintf("%.1f", m.PowerProxy),
			fmt.Sprintf("%+.1f%%", dd*100),
			fmt.Sprintf("%+.1f%%", da*100),
			fmt.Sprintf("%+.1f%%", dp*100))
		return nil
	}
	for _, c := range configs {
		res, err := core.Lock(c7552.nl, core.Options{Blocks: c.blocks, Size: c.size, Seed: cfg.Seed})
		if err != nil {
			t.AddRow(c.label, "n/a", "n/a", "n/a", "n/a", "-", "-", "-")
			continue
		}
		bound, err := res.ApplyKey(res.Key)
		if err != nil {
			return nil, err
		}
		if err := addMeasured(c.label, bound); err != nil {
			return nil, err
		}
		// The activated view: binding the correct key and resynthesizing
		// collapses the MUX lattice — the functional overhead of an
		// unlocked part is near zero; the cost lives in the
		// reconfigurable fabric (MTJs + periphery, Table IV world).
		if c.blocks == 3 {
			resynth := bound.Clone()
			if _, err := opt.Optimize(resynth); err != nil {
				return nil, err
			}
			if err := addMeasured(c.label+" (activated+resynth)", resynth); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}
