// Command nettool is the netlist Swiss-army knife: statistics,
// resynthesis, format conversion (.bench → structural Verilog; it
// reads only .bench), key binding, and SAT-based equivalence checking.
//
// Usage:
//
//	nettool -in a.bench -stats
//	nettool -in locked.bench -bindkey key.txt -opt -out activated.bench
//	nettool -in a.bench -format verilog -out a.v
//	nettool -in a.bench -equiv b.bench [-timeout 60s]
//	nettool -in locked.bench -bindkey key.txt -opt -out activated.bench -equiv orig.bench
//
// -out (and -stats) are written before -equiv's proof, whose verdict
// alone goes to stdout when there is no -out.
//
// Exit status: 0 on success (with -equiv: EQUIVALENT), 1 when -equiv
// prints NOT EQUIVALENT, 2 on usage, input or I/O failure, and 3 when
// -equiv prints UNDECIDED (timeout): the proof ran out of -timeout.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/attack"
	"repro/internal/netlist"
	"repro/internal/opt"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nettool", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in      = fs.String("in", "", "input .bench netlist (required)")
		out     = fs.String("out", "", "write the netlist to this file (default stdout, unless -stats or -equiv is given)")
		format  = fs.String("format", "bench", "output format: bench|verilog")
		stats   = fs.Bool("stats", false, "print circuit statistics")
		doOpt   = fs.Bool("opt", false, "resynthesize (constant folding, CSE, ...)")
		bindKey = fs.String("bindkey", "", "bind key inputs from a key file (name=bit lines)")
		prefix  = fs.String("keyprefix", "keyinput", "key input name prefix for -bindkey")
		equiv   = fs.String("equiv", "", "prove SAT equivalence against this .bench file")
		timeout = fs.Duration("timeout", 60*time.Second, "equivalence-check timeout")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *in == "" {
		fmt.Fprintln(stderr, "nettool: -in is required")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "nettool:", err)
		return 2
	}
	nl, err := load(*in)
	if err != nil {
		return fail(err)
	}

	if *bindKey != "" {
		keyPos := nl.GateIDsByPrefix(*prefix)
		if len(keyPos) == 0 {
			return fail(fmt.Errorf("no key inputs with prefix %q", *prefix))
		}
		text, err := os.ReadFile(*bindKey)
		if err != nil {
			return fail(err)
		}
		byName, err := netlist.ParseKey(*bindKey, string(text))
		if err != nil {
			return fail(err)
		}
		key, err := nl.KeyFromNames(keyPos, byName)
		if err != nil {
			return fail(err)
		}
		nl, err = nl.BindInputs(keyPos, key)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "nettool: bound %d key bits\n", len(key))
	}

	if *doOpt {
		st, err := opt.Optimize(nl)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stderr, "nettool:", st)
	}

	if *stats {
		s, err := nl.ComputeStats()
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, s)
	}

	// With -stats or -equiv, the netlist goes only to an -out file, so
	// stdout holds just their reports.
	if *out != "" || !*stats && *equiv == "" {
		w := stdout
		var f *os.File
		if *out != "" {
			f, err = os.Create(*out)
			if err != nil {
				return fail(err)
			}
			w = f
		}
		switch *format {
		case "bench":
			err = nl.WriteBench(w)
		case "verilog":
			err = nl.WriteVerilog(w)
		default:
			err = fmt.Errorf("unknown format %q", *format)
		}
		if f != nil {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return fail(err)
		}
	}

	if *equiv != "" {
		other, err := load(*equiv)
		if err != nil {
			return fail(err)
		}
		eq, cex, err := attack.EquivalentSAT(nl, other, *timeout)
		switch {
		case errors.Is(err, attack.ErrEquivalenceTimeout):
			fmt.Fprintln(stdout, "UNDECIDED (timeout)")
			return 3
		case err != nil:
			return fail(err)
		case eq:
			fmt.Fprintln(stdout, "EQUIVALENT")
			return 0
		}
		fmt.Fprintf(stdout, "NOT EQUIVALENT (counterexample inputs: %v)\n", cex)
		return 1
	}
	return 0
}

func load(path string) (*netlist.Netlist, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return netlist.ParseBench(path, f)
}
