// Command rilperf is the repository's seeded end-to-end and per-layer
// benchmark. It runs four workloads through the layers' public
// functions, each in a child process of its own, checks every output,
// and prints every metric by name with its unit.
//
// Usage, from the repository root (bash cmd/rilperf/run.sh builds the
// binary and passes its flags through):
//
//	rilperf [-workload W|all] [-seed N] [-seconds S] [-trace 0|1] [-spans F] [-out F]
//	rilperf -compare base.jsonl new.jsonl
//
// An untraced run (-trace 0) reports the end-to-end metrics of
// BENCHMARK.json; a traced run (-trace 1) reports its per-layer
// metrics, writes the span file and measures its own overhead. With one
// workload the last line of standard output is the JSON result object;
// -out appends each run's full record to a JSON-lines file, which
// -compare reads.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childEnv marks a child process; a test binary checks it to run the
// benchmark instead of its tests.
const childEnv = "RILPERF_CHILD"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rilperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var (
		workload  = fs.String("workload", "all", "workload to run: "+strings.Join(names, ", ")+", or all")
		seed      = fs.Int64("seed", 1, "seed the workload inputs derive from")
		seconds   = fs.Float64("seconds", 10, "how long an untraced run measures; a traced run's two passes get half each")
		trace     = fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics, span file and tracing overhead")
		spans     = fs.String("spans", "", "span file of a traced run (default <work>/spans-<workload>.jsonl)")
		out       = fs.String("out", "", "append each run's full record to this JSON-lines file")
		work      = fs.String("work", filepath.Join(".bench_build", "work"), "scratch directory for state, caches and spans")
		quick     = fs.Bool("quick", false, "a few ops per workload on small inputs")
		compare   = fs.Bool("compare", false, "compare the records of two -out files: rilperf -compare base.jsonl new.jsonl")
		benchmark = fs.String("benchmark", "BENCHMARK.json", "benchmark definition -compare takes its bounds from")
		child     = fs.Bool("child", false, "run one workload in this process and print its record (the parent starts it)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "rilperf: -compare takes two record files")
			return 2
		}
		worse, err := compareFiles(*benchmark, fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "rilperf:", err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fs.Usage()
		return 2
	}
	selected := names
	if *workload != "all" {
		if _, ok := workloadByName(*workload); !ok {
			fmt.Fprintf(stderr, "rilperf: unknown workload %q\n", *workload)
			return 2
		}
		selected = []string{*workload}
	}
	if *spans != "" && len(selected) > 1 {
		fmt.Fprintln(stderr, "rilperf: -spans names one file; give it with a single -workload")
		return 2
	}
	cfg := config{
		seed:   *seed,
		window: time.Duration(*seconds * float64(time.Second)),
		traced: *trace == 1,
		quick:  *quick,
	}
	if *child {
		cfg.workload = *workload
		cfg.spans = *spans
		return runChild(cfg, *work, stdout, stderr)
	}

	// Every workload runs in a child of its own, so its peak RSS is its
	// own. Running all workloads with -trace 1 runs each untraced first.
	var recs []*record
	for _, name := range selected {
		modes := []bool{cfg.traced}
		if len(selected) > 1 && cfg.traced {
			modes = []bool{false, true}
		}
		for _, traced := range modes {
			c := cfg
			c.workload, c.traced = name, traced
			c.spans = *spans
			if c.spans == "" {
				c.spans = filepath.Join(*work, "spans-"+name+".jsonl")
			}
			rec, err := spawn(c, *work, *quick, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "rilperf: %s: %v\n", name, err)
				return 1
			}
			printRecord(stdout, rec)
			if *out != "" {
				if err := appendRecord(*out, rec); err != nil {
					fmt.Fprintln(stderr, "rilperf:", err)
					return 1
				}
			}
			recs = append(recs, rec)
		}
	}
	last, err := json.Marshal(summarize(recs))
	if err != nil {
		fmt.Fprintln(stderr, "rilperf:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", last)
	for _, r := range recs {
		if !r.Correct {
			return 1
		}
	}
	return 0
}

// runChild measures one workload in this process and prints its record
// as one JSON line.
func runChild(cfg config, work string, stdout, stderr io.Writer) int {
	cfg.dir = filepath.Join(work, fmt.Sprintf("%s-%d", cfg.workload, os.Getpid()))
	rec, err := measure(cfg, stderr)
	if rerr := os.RemoveAll(cfg.dir); err == nil && rerr != nil {
		err = rerr
	}
	if err != nil {
		fmt.Fprintf(stderr, "rilperf: %s: %v\n", cfg.workload, err)
		return 1
	}
	line, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintln(stderr, "rilperf:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// spawn runs one workload in a child process, waits for it and adds
// the child's peak RSS to an untraced record.
func spawn(cfg config, work string, quick bool, stderr io.Writer) (*record, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	trace := "0"
	if cfg.traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-child",
		"-workload", cfg.workload,
		"-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.window.Seconds(), 'g', -1, 64),
		"-trace", trace,
		"-spans", cfg.spans,
		"-work", work,
		"-quick="+strconv.FormatBool(quick))
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rec record
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec); err != nil {
		return nil, fmt.Errorf("child record: %w", err)
	}
	if !cfg.traced {
		ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
		if !ok {
			return nil, errors.New("child: no resource usage")
		}
		rec.Metrics["peak_rss_mb"] = metric{float64(ru.Maxrss) / 1024, "MB"} // Maxrss is in KiB on Linux
	}
	return &rec, nil
}

// printRecord prints every metric of a record by name with its unit,
// then what else the run measured.
func printRecord(w io.Writer, r *record) {
	mode := "end-to-end"
	if r.Traced {
		mode = "per-layer"
	}
	fmt.Fprintf(w, "# %s seed=%d %s: %d ops, %d failed\n", r.Workload, r.Seed, mode, r.Attempted, r.Failed)
	for _, part := range []map[string]metric{r.Metrics, r.Extra} {
		keys := make([]string, 0, len(part))
		for k := range part {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "%-16s %-40s %14.6g %s\n", r.Workload, k, part[k].Value, part[k].Unit)
		}
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "%-16s error: %s\n", r.Workload, e)
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// summarize turns the records into the result line. With several
// records the metric names carry the workload and mode.
func summarize(recs []*record) result {
	res := result{Correct: true, Metrics: map[string]metric{}}
	for _, r := range recs {
		res.Correct = res.Correct && r.Correct
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		for k, m := range r.Metrics {
			if len(recs) > 1 {
				k = r.Workload + "/" + k
			}
			res.Metrics[k] = m
		}
	}
	return res
}

func appendRecord(path string, r *record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}
