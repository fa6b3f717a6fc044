// Command netlint statically analyzes .bench netlists: combinational
// cycles (with the concrete cycle path), undriven nets, dead logic,
// key bits that influence no primary output (effective vs. nominal key
// length), constant/pass-through LUT configurations, and scan-chain
// integrity — plus the oracle-less resilience audit (key-cofactor
// constant propagation, key-equivalence funnels, removal-vulnerability
// matching, scan exposure) that computes the effective key length an
// oracle-less attacker faces. It parses laxly, so structurally broken
// netlists — the ones worth linting — are analyzed rather than
// rejected.
//
// Usage:
//
//	netlint [flags] <path ...>
//
// Each path may be a .bench file, a directory, or a Go-style dir/...
// pattern; directories are walked recursively for *.bench files.
//
//	netlint testdata/...
//	netlint -key key.txt locked.bench
//	netlint -scan chains.json -json locked.bench
//	netlint -json -analyzers comb-cycle,key-influence locked.bench
//
// A -key file may leave key inputs out, but every name it gives must be
// a key input (by -keyprefix) of each linted netlist: a key written for
// another netlist exits 2.
//
// The -scan file is the JSON form of netlint.ScanSpec:
//
//	{"chains": [{"name": "...", "width": 2, "cells": ["...", "..."], "key_chain": false}]}
//
// Exit status: 0 when no Error-level diagnostics were found, 1 when at
// least one netlist has errors, 2 on usage or I/O failure. JSON output
// is a deterministic array of netlint.Result values in input order, so
// downstream consumers (the planned lint daemon) can rely on stable
// field order and exit codes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/netlint"
	"repro/internal/netlist"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("netlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jsonOut   = fs.Bool("json", false, "emit machine-readable JSON instead of text")
		keyFile   = fs.String("key", "", "key file (name=bit per line) enabling const-lut evaluation")
		scanFile  = fs.String("scan", "", "scan-chain spec (JSON) enabling the scan-integrity and scan-exposure analyzers")
		keyPrefix = fs.String("keyprefix", "keyinput", "key input name prefix")
		names     = fs.String("analyzers", "", "comma-separated analyzer subset (default: all, hygiene plus audit)")
		minSev    = fs.String("severity", "info", "minimum severity to print: info|warn|error")
		list      = fs.Bool("list", false, "list available analyzers and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range netlint.All() {
			fmt.Fprintf(stdout, "%-22s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "netlint: no input files (try: netlint testdata/...)")
		return 2
	}
	threshold, err := netlint.ParseSeverity(*minSev)
	if err != nil {
		return fail(stderr, err)
	}
	// The CLI is the audit surface: with no explicit subset it runs
	// everything, not just Run's hygiene default.
	analyzers := netlint.All()
	if *names != "" {
		analyzers, err = netlint.ByName(strings.Split(*names, ",")...)
		if err != nil {
			return fail(stderr, err)
		}
	}
	opts := netlint.Options{KeyPrefix: *keyPrefix}
	if *keyFile != "" {
		text, err := os.ReadFile(*keyFile)
		if err != nil {
			return fail(stderr, err)
		}
		opts.Key, err = netlist.ParseKey(*keyFile, string(text))
		if err != nil {
			return fail(stderr, err)
		}
	}
	if *scanFile != "" {
		opts.Scan, err = readScanFile(*scanFile)
		if err != nil {
			return fail(stderr, err)
		}
	}

	files, err := expandPaths(fs.Args())
	if err != nil {
		return fail(stderr, err)
	}
	if len(files) == 0 {
		fmt.Fprintln(stderr, "netlint: no .bench files matched")
		return 2
	}

	failed := false
	var results []*netlint.Result
	for _, path := range files {
		res, err := lintFile(path, opts, *keyFile, analyzers)
		if err != nil {
			return fail(stderr, err)
		}
		if res.HasErrors() {
			failed = true
		}
		if *jsonOut {
			results = append(results, res)
			continue
		}
		printText(stdout, path, res, threshold)
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			return fail(stderr, err)
		}
	}
	if failed {
		return 1
	}
	return 0
}

func printText(w io.Writer, path string, res *netlint.Result, threshold netlint.Severity) {
	printed := false
	for _, d := range res.Diagnostics {
		if d.Severity < threshold {
			continue
		}
		fmt.Fprintf(w, "%s: %s\n", path, d)
		printed = true
	}
	if kr := res.KeyReport; kr != nil && threshold == netlint.Info {
		fmt.Fprintf(w, "%s: key-influence histogram (outputs reached -> key bits):", path)
		for _, bin := range kr.Histogram {
			fmt.Fprintf(w, " %d->%d", bin.Outputs, bin.Keys)
		}
		fmt.Fprintln(w)
	}
	if rep := res.Resilience; rep != nil && threshold == netlint.Info {
		for _, pr := range rep.Pruned {
			fmt.Fprintf(w, "%s: resilience: %s bit %s (%s, %s proof): %s\n",
				path, pr.Class, pr.Key, pr.Analyzer, pr.Proof, pr.Reason)
		}
		for _, g := range rep.Linked {
			fmt.Fprintf(w, "%s: resilience: %s group {%s} via %s (%s proof)\n",
				path, g.Kind, strings.Join(g.Keys, ", "), g.Via, g.Proof)
		}
	}
	if printed || res.HasErrors() {
		fmt.Fprintf(w, "%s: %d error(s), %d warning(s)\n", path, res.Count(netlint.Error), res.Count(netlint.Warn))
	} else {
		fmt.Fprintf(w, "%s: ok\n", path)
	}
}

func lintFile(path string, opts netlint.Options, keyFile string, analyzers []*netlint.Analyzer) (*netlint.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	// Lax parse: the linter exists precisely to diagnose netlists the
	// strict parser would reject.
	nl, _, err := netlist.ParseBenchLax(path, f)
	if err != nil {
		return nil, err
	}
	if err := checkKeyNames(nl, path, opts, keyFile); err != nil {
		return nil, err
	}
	return netlint.Run(nl, opts, analyzers...)
}

// checkKeyNames rejects a key file written for another netlist: every
// name it gives must be a key input of nl (read from path), by the key
// prefix. A key may leave key inputs out, since const-lut evaluates
// only the LUTs whose key values it is given.
func checkKeyNames(nl *netlist.Netlist, path string, opts netlint.Options, keyFile string) error {
	isKey := make(map[string]bool)
	for _, pos := range nl.GateIDsByPrefix(opts.KeyInputPrefix()) {
		isKey[nl.Gates[nl.Inputs[pos]].Name] = true
	}
	var unknown []string
	for name := range opts.Key {
		if !isKey[name] {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) == 0 {
		return nil
	}
	sort.Strings(unknown)
	return fmt.Errorf("key %s: %q is not a key input of %s", keyFile, unknown[0], path)
}

// expandPaths resolves files, directories and Go-style dir/...
// patterns into a sorted list of .bench files.
func expandPaths(args []string) ([]string, error) {
	seen := map[string]bool{}
	var files []string
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			files = append(files, p)
		}
	}
	for _, arg := range args {
		root := strings.TrimSuffix(arg, "...")
		root = strings.TrimSuffix(root, string(filepath.Separator))
		if root == "" {
			root = "."
		}
		info, err := os.Stat(root)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			add(root)
			continue
		}
		err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() && strings.HasSuffix(p, ".bench") {
				add(p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(files)
	return files, nil
}

func readScanFile(path string) (*netlint.ScanSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec netlint.ScanSpec
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("scan spec %s: %w", path, err)
	}
	return &spec, nil
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "netlint:", err)
	return 2
}
