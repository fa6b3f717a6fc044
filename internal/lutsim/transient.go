package lutsim

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/logic"
)

// TracePoint is one sample of the transient simulation.
type TracePoint struct {
	T       float64 // time [s]
	Signals map[string]float64
}

// Waveform is a named transient trace (reproduction of Fig. 5).
type Waveform struct {
	Name   string
	Points []TracePoint
}

// Transient reproduces the Fig. 5 experiment: configure the LUT as an
// AND gate, sweep all four input combinations in functional mode, then
// reconfigure the same LUT as NOR (updating MTJ_SE as the paper shows)
// and sweep again — demonstrating in-field polymorphism. Signals:
// WE, RE, SE, A, B, BL, OUT, I_read(µA).
func Transient(cfg Config) (*Waveform, error) {
	l := New(cfg)
	w := &Waveform{Name: "fig5"}
	t := 0.0
	emit := func(dt float64, sig map[string]float64) {
		t += dt
		w.Points = append(w.Points, TracePoint{T: t, Signals: sig})
	}

	phase := func(f logic.Func2, seBit bool, seSignal bool) error {
		// Write phase: shift the four key bits in through BL.
		keys := f.Keys()
		for i, k := range keys {
			rep := l.writeCell(l.Cells[[4]int{3, 2, 1, 0}[i]], k)
			if rep.Error {
				return fmt.Errorf("lutsim: transient write %d failed", i)
			}
			bl := 0.0
			if k {
				bl = cfg.Vdd
			}
			emit(cfg.WritePulse, map[string]float64{
				"WE": cfg.Vdd, "RE": 0, "SE": 0, "BL": bl, "OUT": 0, "Iread_uA": 0,
				"A": float64(([4]int{3, 2, 1, 0}[i] >> 1)) * cfg.Vdd,
				"B": float64(([4]int{3, 2, 1, 0}[i] & 1)) * cfg.Vdd,
			})
		}
		// Update MTJ_SE (paper Fig. 5: its content changes with the
		// configuration to keep test-mode responses consistent).
		if rep := l.SetSE(seBit); rep.Error {
			return fmt.Errorf("lutsim: transient SE write failed")
		}
		seV := 0.0
		if seBit {
			seV = cfg.Vdd
		}
		emit(cfg.WritePulse, map[string]float64{
			"WE": cfg.Vdd, "RE": 0, "SE": 0, "BL": seV, "OUT": 0, "Iread_uA": 0, "A": 0, "B": 0,
		})

		// Read phase: all four input combinations.
		for idx := 0; idx < 4; idx++ {
			a, b := idx>>1 == 1, idx&1 == 1
			rep := l.Read(a, b, seSignal)
			out := 0.0
			if rep.Out {
				out = cfg.Vdd
			}
			se := 0.0
			if seSignal {
				se = cfg.Vdd
			}
			emit(cfg.ReadPulse*4, map[string]float64{
				"WE": 0, "RE": cfg.Vdd, "SE": se,
				"A": boolV(a, cfg.Vdd), "B": boolV(b, cfg.Vdd),
				"BL": 0, "OUT": out, "Iread_uA": rep.Current * 1e6,
			})
		}
		return nil
	}

	// (a) AND gate, functional mode.
	if err := phase(logic.AND, false, false); err != nil {
		return nil, err
	}
	// (b) reconfigured to NOR, functional mode.
	if err := phase(logic.NOR, true, false); err != nil {
		return nil, err
	}
	// (c) operating modes: NOR read through the scan path (SE=1, SE
	// cell = 1 inverts OUT).
	if err := phase(logic.NOR, true, true); err != nil {
		return nil, err
	}
	return w, nil
}

func boolV(b bool, v float64) float64 {
	if b {
		return v
	}
	return 0
}

// SignalNames lists the signals present in the waveform, sorted.
func (w *Waveform) SignalNames() []string {
	set := map[string]bool{}
	for _, p := range w.Points {
		for k := range p.Signals {
			set[k] = true
		}
	}
	names := make([]string, 0, len(set))
	for k := range set {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Signal extracts one signal as (t, v) pairs.
func (w *Waveform) Signal(name string) (ts, vs []float64) {
	for _, p := range w.Points {
		if v, ok := p.Signals[name]; ok {
			ts = append(ts, p.T)
			vs = append(vs, v)
		}
	}
	return ts, vs
}

// WriteCSV emits the waveform as CSV (time in ns).
func (w *Waveform) WriteCSV(out io.Writer) error {
	names := w.SignalNames()
	if _, err := fmt.Fprintf(out, "t_ns,%s\n", strings.Join(names, ",")); err != nil {
		return err
	}
	for _, p := range w.Points {
		row := make([]string, 0, len(names)+1)
		row = append(row, fmt.Sprintf("%.4f", p.T*1e9))
		for _, n := range names {
			row = append(row, fmt.Sprintf("%.4g", p.Signals[n]))
		}
		if _, err := fmt.Fprintln(out, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}
