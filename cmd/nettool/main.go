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
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/attack"
	"repro/internal/netlist"
	"repro/internal/opt"
)

func main() {
	var (
		in      = flag.String("in", "", "input .bench netlist (required)")
		out     = flag.String("out", "", "output file (default stdout; only with -out actions)")
		format  = flag.String("format", "bench", "output format: bench|verilog")
		stats   = flag.Bool("stats", false, "print circuit statistics")
		doOpt   = flag.Bool("opt", false, "resynthesize (constant folding, CSE, ...)")
		bindKey = flag.String("bindkey", "", "bind key inputs from a key file (name=bit lines)")
		prefix  = flag.String("keyprefix", "keyinput", "key input name prefix for -bindkey")
		equiv   = flag.String("equiv", "", "prove SAT equivalence against this .bench file")
		timeout = flag.Duration("timeout", 60*time.Second, "equivalence-check timeout")
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "nettool: -in is required")
		os.Exit(2)
	}
	nl, err := load(*in)
	if err != nil {
		fail(err)
	}

	if *bindKey != "" {
		keyPos := nl.GateIDsByPrefix(*prefix)
		if len(keyPos) == 0 {
			fail(fmt.Errorf("no key inputs with prefix %q", *prefix))
		}
		text, err := os.ReadFile(*bindKey)
		if err != nil {
			fail(err)
		}
		byName, err := netlist.ParseKey(*bindKey, string(text))
		if err != nil {
			fail(err)
		}
		key, err := nl.KeyFromNames(keyPos, byName)
		if err != nil {
			fail(err)
		}
		nl, err = nl.BindInputs(keyPos, key)
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "nettool: bound %d key bits\n", len(key))
	}

	if *doOpt {
		st, err := opt.Optimize(nl)
		if err != nil {
			fail(err)
		}
		fmt.Fprintln(os.Stderr, "nettool:", st)
	}

	if *stats {
		s, err := nl.ComputeStats()
		if err != nil {
			fail(err)
		}
		fmt.Println(s)
	}

	if *equiv != "" {
		other, err := load(*equiv)
		if err != nil {
			fail(err)
		}
		eq, cex, err := attack.EquivalentSAT(nl, other, *timeout)
		if err != nil {
			fail(err)
		}
		if eq {
			fmt.Println("EQUIVALENT")
			return
		}
		fmt.Printf("NOT EQUIVALENT (counterexample inputs: %v)\n", cex)
		os.Exit(1)
	}

	if *out != "" || (!*stats && *equiv == "") {
		w := os.Stdout
		var f *os.File
		if *out != "" {
			f, err = os.Create(*out)
			if err != nil {
				fail(err)
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
		if err == nil && f != nil {
			err = f.Close()
		}
		if err != nil {
			fail(err)
		}
	}
}

func load(path string) (*netlist.Netlist, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return netlist.ParseBench(path, f)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "nettool:", err)
	os.Exit(1)
}
