package report

import (
	"context"
	"fmt"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/sweep"
)

// LUTSizeTable reproduces the §IV-E LUT-scaling claim: growing the LUT
// from 2 to 4 inputs multiplies the function space (2^(2^m)) and the
// SAT cost, while the *device* cost per configurable bit shrinks
// because the write periphery is shared across cells. The three LUT
// sizes run as parallel sweep jobs.
func LUTSizeTable(cfg AttackConfig, nLUTs int) (*Table, error) {
	c7552, err := benchmarks.get("c7552", cfg.Scale)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "LUT size scaling (SIV-E): hardness up, device cost per key bit down",
		Header: []string{"LUT size", "key bits", "functions/LUT", "DIPs", "runtime (s)", "result",
			"T/LUT", "T/key bit"},
		Notes: []string{fmt.Sprintf("%d LUTs per configuration, scale=%.2f timeout=%v", nLUTs, cfg.Scale, cfg.Timeout)},
	}
	tc := cfg.cells()
	var jobs []sweep.Job
	for _, m := range []int{2, 3, 4} {
		jobs = append(jobs, tc.cell(fmt.Sprintf("lutsize/lut%d", m), "lut-size-cell", c7552.sum,
			map[string]any{"luts": nLUTs, "lut_inputs": m},
			func(ctx context.Context) (any, error) {
				res, err := core.LockLUTM(c7552.nl, nLUTs, m, cfg.Seed)
				if err != nil {
					return []string{fmt.Sprintf("LUT%d", m), "n/a", "n/a", "n/a", "n/a", "n/a", "n/a", "n/a"}, nil
				}
				ar, err := cfg.satAttack(ctx, res.Locked, res.KeyInputPos, res.Key)
				if err != nil {
					return nil, err
				}
				trans, _ := core.MRAMLUTArea(m)
				return []string{
					fmt.Sprintf("LUT%d", m),
					fmt.Sprintf("%d", res.KeyBits()),
					core.LUTFunctionSpace(m).String(),
					fmt.Sprintf("%d", ar.Iterations),
					fmtDuration(ar.Elapsed, ar.Status != attack.KeyFound),
					ar.Status.String(),
					fmt.Sprintf("%d", trans),
					fmt.Sprintf("%.2f", float64(trans)/float64(int(1)<<uint(m))),
				}, nil
			}))
	}
	return rowTable(t, cfg, jobs)
}
