package report

import (
	"context"
	"fmt"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/netlint"
	"repro/internal/netlist"
	"repro/internal/sweep"
)

// resilienceRow is one audit cell's JSON-serializable payload, so a
// checkpointed sweep restores it losslessly.
type resilienceRow struct {
	Nominal     int    `json:"nominal"`
	Effective   int    `json:"effective"`
	Exact       bool   `json:"exact"`
	Pruned      int    `json:"pruned"`
	Linked      int    `json:"linked"`
	OracleCheck string `json:"oracle_check"`
	SATTime     string `json:"sat_time"`
	// Unlockable marks a configuration the circuit cannot host (the
	// whole row renders "n/a", mirroring Table1's cell-local treatment
	// of lock errors).
	Unlockable bool `json:"unlockable,omitempty"`
}

// ResilienceTable runs the oracle-less resilience audit (netlint's
// key-const-prop, key-equivalence, removal-vulnerability and
// scan-exposure analyzers, DESIGN.md §10) against RIL-locked circuits
// and prints the effective key length next to the SAT-attack runtime
// on the same lock. The last row deliberately weakens a lock with
// three planted redundant key bits (one forced constant, one parity
// pair) to demonstrate the metric catching them; every discarded bit
// is cross-checked against the batched oracle (flip error must be 0).
func ResilienceTable(cfg AttackConfig) (*Table, error) {
	c17, err := benchmarks.get("c17", cfg.Scale)
	if err != nil {
		return nil, err
	}
	c432, err := benchmarks.get("c432", cfg.Scale)
	if err != nil {
		return nil, err
	}
	// c432 at small scales cannot host an 8x8 block, so the 8x8 row
	// uses the larger c7552 (where the SAT attack typically times out
	// while the audit still terminates with a key-length bound).
	c7552, err := benchmarks.get("c7552", cfg.Scale)
	if err != nil {
		return nil, err
	}
	rows := []struct {
		circuit string
		c       benchCircuit
		blocks  int
		size    core.Size
		planted bool
	}{
		{"c17", c17, 1, core.Size2x2, false},
		{"c432", c432, 2, core.Size2x2, false},
		{"c7552", c7552, 1, core.Size8x8, false},
		{"c432", c432, 2, core.Size2x2, true},
	}
	t := &Table{
		Title: "Oracle-less resilience audit: effective key length vs SAT-attack runtime",
		Header: []string{"circuit", "config", "nominal", "effective", "exactness",
			"pruned", "linked", "oracle check", "SAT attack (s)"},
		Notes: []string{
			fmt.Sprintf("scale=%.2f timeout=%v; 'planted' = lock weakened with 3 redundant key bits", cfg.Scale, cfg.Timeout),
			"oracle check: max flip-error over audit-discarded bits under the batched oracle (must be 0)",
		},
	}
	var jobs []sweep.Job
	for _, r := range rows {
		name := fmt.Sprintf("audit/%s/%dx%s", r.circuit, r.blocks, r.size)
		if r.planted {
			name += "/planted"
		}
		jobs = append(jobs, cfg.cell(name, "audit-cell", r.c.sum,
			map[string]any{"blocks": r.blocks, "size": r.size.String(), "planted": r.planted},
			func(ctx context.Context) (any, error) {
				return auditLockRow(ctx, r.c.nl, r.blocks, r.size, r.planted, cfg)
			}))
	}
	cells, err := runCells[resilienceRow](cfg, "audit", jobs)
	if err != nil {
		return nil, err
	}
	for i, row := range cells {
		r := rows[i]
		config := fmt.Sprintf("%dx %s", r.blocks, r.size)
		if r.planted {
			config += " planted"
		}
		if row.Unlockable {
			t.AddRow(r.circuit, config, "n/a", "n/a", "n/a", "n/a", "n/a", "n/a", "n/a")
			continue
		}
		exactness := "exact"
		if !row.Exact {
			exactness = "conservative"
		}
		t.AddRow(r.circuit, config,
			fmt.Sprintf("%d", row.Nominal),
			fmt.Sprintf("%d", row.Effective),
			exactness,
			fmt.Sprintf("%d", row.Pruned),
			fmt.Sprintf("%d", row.Linked),
			row.OracleCheck,
			row.SATTime)
	}
	return t, nil
}

func auditLockRow(ctx context.Context, orig *netlist.Netlist, blocks int, size core.Size, planted bool, cfg AttackConfig) (resilienceRow, error) {
	var zero resilienceRow
	res, err := core.Lock(orig, core.Options{Blocks: blocks, Size: size, Seed: cfg.Seed})
	if err != nil {
		return resilienceRow{Unlockable: true}, nil
	}
	locked := res.Locked
	keyPos := append([]int(nil), res.KeyInputPos...)
	key := append([]bool(nil), res.Key...)
	names := append([]string(nil), res.KeyNames...)
	if planted {
		locked = locked.Clone()
		pPos, pNames, err := plantRedundantKeys(locked, len(key))
		if err != nil {
			return zero, err
		}
		keyPos = append(keyPos, pPos...)
		names = append(names, pNames...)
		key = append(key, make([]bool, len(pPos))...)
	}

	lres, err := netlint.Run(locked, netlint.Options{AuditSeed: cfg.Seed}, netlint.All()...)
	if err != nil {
		return zero, err
	}
	rep := lres.Resilience
	if rep == nil {
		return zero, fmt.Errorf("report: audit produced no resilience report for %s", locked.Name)
	}

	bitOf := map[string]int{}
	for i, n := range names {
		bitOf[n] = i
	}
	row := resilienceRow{
		Nominal:   rep.Nominal,
		Effective: rep.Effective,
		Exact:     rep.Exact,
		Pruned:    len(rep.Pruned),
		Linked:    len(rep.Linked),
	}
	// Cross-check every discarded bit against the oracle: the audit
	// claims the bit is output-irrelevant, so flipping it must never
	// change an output.
	maxErr, checked := 0.0, 0
	for _, pr := range rep.Pruned {
		if pr.Class != netlint.ClassDiscarded {
			continue
		}
		bit, ok := bitOf[pr.Key]
		if !ok {
			return zero, fmt.Errorf("report: audit pruned unknown key %q", pr.Key)
		}
		e, err := attack.KeyBitFlipError(locked, keyPos, key, bit, 8, cfg.Seed)
		if err != nil {
			return zero, err
		}
		checked++
		if e > maxErr {
			maxErr = e
		}
	}
	switch {
	case checked == 0:
		row.OracleCheck = "-"
	case maxErr == 0:
		row.OracleCheck = fmt.Sprintf("ok (%d bits)", checked)
	default:
		row.OracleCheck = fmt.Sprintf("FAIL (%.3g)", maxErr)
	}

	sat, err := cfg.satAttack(ctx, locked, keyPos, key)
	if err != nil {
		return zero, err
	}
	row.SATTime = fmtDuration(sat.Elapsed, sat.Status != attack.KeyFound)
	return row, nil
}

// buildC17 constructs ISCAS-85 c17 (5 PI, 2 PO, six NAND gates) — the
// canonical miniature benchmark, small enough for every audit proof to
// be exhaustive.
func buildC17() (*netlist.Netlist, error) {
	nl := netlist.New("c17")
	g1 := nl.AddInput("G1")
	g2 := nl.AddInput("G2")
	g3 := nl.AddInput("G3")
	g6 := nl.AddInput("G6")
	g7 := nl.AddInput("G7")
	g10 := nl.AddGate("G10", netlist.Nand, g1, g3)
	g11 := nl.AddGate("G11", netlist.Nand, g3, g6)
	g16 := nl.AddGate("G16", netlist.Nand, g2, g11)
	g19 := nl.AddGate("G19", netlist.Nand, g11, g7)
	nl.MarkOutput(nl.AddGate("G22", netlist.Nand, g10, g16))
	nl.MarkOutput(nl.AddGate("G23", netlist.Nand, g16, g19))
	if err := nl.Validate(); err != nil {
		return nil, err
	}
	return nl, nil
}

// plantRedundantKeys appends three deliberately weak key bits to a
// locked netlist — keyinput<n> forced irrelevant by a constant-0 AND,
// and the parity pair keyinput<n+1>/keyinput<n+2> XOR-ed in series
// into one output — mirroring the planted fixtures the audit's unit
// tests use. Returns the new bits' input positions and names.
func plantRedundantKeys(nl *netlist.Netlist, firstKey int) ([]int, []string, error) {
	var sites []int
	seen := map[int]bool{}
	for _, o := range nl.Outputs {
		if !seen[o] {
			seen[o] = true
			sites = append(sites, o)
		}
	}
	if len(sites) < 2 {
		return nil, nil, fmt.Errorf("report: %q has %d outputs, planting needs 2", nl.Name, len(sites))
	}
	var pos []int
	var names []string
	addKey := func(i int) int {
		name := fmt.Sprintf("keyinput%d", i)
		pos = append(pos, len(nl.Inputs))
		names = append(names, name)
		return nl.AddInput(name)
	}
	mix := func(site, signal int, name string) int {
		g := nl.AddGate(name, netlist.Xor, site, signal)
		nl.RedirectFanout(site, g)
		return g
	}
	kA := addKey(firstKey)
	zero := nl.AddGate("plantzero", netlist.Const0)
	dead := nl.AddGate("plantdead", netlist.And, kA, zero)
	mix(sites[0], dead, "plantg0")
	kB := addKey(firstKey + 1)
	kC := addKey(firstKey + 2)
	g := mix(sites[1], kB, "plantg1")
	mix(g, kC, "plantg2")
	if err := nl.Validate(); err != nil {
		return nil, nil, fmt.Errorf("report: planted netlist: %w", err)
	}
	return pos, names, nil
}
