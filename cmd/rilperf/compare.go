package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// benchDef is the part of BENCHMARK.json -compare reads.
type benchDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchDef(path string) (*benchDef, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d benchDef
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// readRecords reads a JSON-lines file written by -out.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// sample is one run's value of one metric.
type sample struct {
	seed  int64
	value float64
}

// verdict judges one workload × end-to-end metric: a gain needs the
// change to win at least nine tenths of the run pairs and its median to
// move by more than the base's interquartile range; a loss is a median
// worse by more than the bound; a base spread wider than the bound
// leaves the metric unresolved unless every new run beats every base
// run.
func verdict(base, next []sample, bound float64, higherBetter bool) string {
	if len(base) < 2 || len(next) < 2 {
		return "unresolved"
	}
	better := func(a, b float64) bool {
		if higherBetter {
			return a > b
		}
		return a < b
	}
	bv, nv := values(base), values(next)
	mb, mn := median(bv), median(nv)
	q := quartiles(bv)
	iqr := q[2] - q[0]
	allBetter := true
	for _, n := range nv {
		for _, b := range bv {
			allBetter = allBetter && better(n, b)
		}
	}
	pairs := pairUp(base, next)
	wins := 0
	for _, p := range pairs {
		if better(p[1], p[0]) {
			wins++
		}
	}
	worseBy := (mn - mb) / math.Abs(mb)
	if higherBetter {
		worseBy = -worseBy
	}
	switch {
	case iqr/math.Abs(mb) > bound:
		if allBetter {
			return "improved"
		}
		return "unresolved"
	case 10*wins >= 9*len(pairs) && better(mn, mb) && math.Abs(mn-mb) > iqr:
		return "improved"
	case worseBy > bound:
		return "worse"
	}
	return "unchanged"
}

func values(s []sample) []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = x.value
	}
	return out
}

// pairUp pairs base and new runs of the same seed, in order; without a
// shared seed it pairs runs by position.
func pairUp(base, next []sample) [][2]float64 {
	bySeed := map[int64][]float64{}
	for _, b := range base {
		bySeed[b.seed] = append(bySeed[b.seed], b.value)
	}
	var pairs [][2]float64
	for _, n := range next {
		if bs := bySeed[n.seed]; len(bs) > 0 {
			pairs = append(pairs, [2]float64{bs[0], n.value})
			bySeed[n.seed] = bs[1:]
		}
	}
	if len(pairs) == 0 {
		for i := 0; i < min(len(base), len(next)); i++ {
			pairs = append(pairs, [2]float64{base[i].value, next[i].value})
		}
	}
	return pairs
}

// quartiles returns the three cut points of statistics.quantiles(v,
// n=4) in Python's default exclusive method.
func quartiles(v []float64) [3]float64 {
	d := append([]float64(nil), v...)
	sort.Float64s(d)
	var q [3]float64
	if len(d) == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	m := len(d) + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(d)-1)
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q
}

// compareFiles prints one row per workload with a verdict per
// end-to-end metric and reports whether any metric got worse.
func compareFiles(benchPath, basePath, nextPath string, w io.Writer) (bool, error) {
	def, err := readBenchDef(benchPath)
	if err != nil {
		return false, err
	}
	base, err := readRecords(basePath)
	if err != nil {
		return false, err
	}
	next, err := readRecords(nextPath)
	if err != nil {
		return false, err
	}
	collect := func(recs []record) map[string]map[string][]sample {
		out := map[string]map[string][]sample{}
		for _, r := range recs {
			if r.Traced {
				continue
			}
			if out[r.Workload] == nil {
				out[r.Workload] = map[string][]sample{}
			}
			for k, m := range r.Metrics {
				out[r.Workload][k] = append(out[r.Workload][k], sample{r.Seed, m.Value})
			}
		}
		return out
	}
	b, n := collect(base), collect(next)
	var wls []string
	for _, wl := range workloads {
		if b[wl.name] != nil || n[wl.name] != nil {
			wls = append(wls, wl.name)
		}
	}
	fmt.Fprintf(w, "%-16s", "workload")
	for _, m := range def.EndToEnd {
		fmt.Fprintf(w, "  %-24s", m.Name)
	}
	fmt.Fprintln(w)
	worse := false
	for _, wl := range wls {
		fmt.Fprintf(w, "%-16s", wl)
		for _, m := range def.EndToEnd {
			bs, ns := b[wl][m.Name], n[wl][m.Name]
			v := verdict(bs, ns, m.Bound, m.Better == "higher")
			worse = worse || v == "worse"
			cell := v
			if len(bs) > 0 && len(ns) > 0 {
				mb := median(values(bs))
				cell = fmt.Sprintf("%s %+.1f%%", v, (median(values(ns))-mb)/math.Abs(mb)*100)
			}
			fmt.Fprintf(w, "  %-24s", cell)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "verdicts over the untraced records; bounds from %s\n", benchPath)
	return worse, nil
}
