package golint

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// Main is the rilvet CLI entry point, run by cmd/rilvet. The
// exit-code contract matches cmd/netlint: 0 when no unsuppressed
// finding was produced, 1 when at least one was, 2 on usage, I/O or
// parse failure.
//
// Usage:
//
//	rilvet [flags] <path ...>
//
// Each path may be a package directory, a Go-style dir/... pattern,
// or a single .go file (its package is linted). testdata, vendor and
// hidden directories are skipped, _test.go files are exempt unless
// -tests is given.
func Main(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rilvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jsonOut        = fs.Bool("json", false, "emit machine-readable JSON (findings keyed by rule/file/line)")
		sarifPath      = fs.String("sarif", "", "also write a SARIF 2.1.0 log to this file (\"-\" for stdout)")
		names          = fs.String("analyzers", "", "comma-separated analyzer subset (default: all)")
		disable        = fs.String("disable", "", "comma-separated analyzers to disable")
		list           = fs.Bool("list", false, "list available analyzers and exit")
		showSuppressed = fs.Bool("show-suppressed", false, "include suppressed findings in text output")
		includeTests   = fs.Bool("tests", false, "also lint _test.go files")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range All() {
			fmt.Fprintf(stdout, "%-18s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "rilvet: no input paths (try: rilvet ./...)")
		return 2
	}

	analyzers := All()
	var err error
	if *names != "" {
		analyzers, err = ByName(splitList(*names)...)
		if err != nil {
			return fail(stderr, err)
		}
	}
	if *disable != "" {
		drop := map[string]bool{}
		for _, name := range splitList(*disable) {
			if !KnownRule(name) {
				return fail(stderr, fmt.Errorf("golint: unknown analyzer %q", name))
			}
			drop[name] = true
		}
		var kept []*Analyzer
		for _, a := range analyzers {
			if !drop[a.Name] {
				kept = append(kept, a)
			}
		}
		analyzers = kept
	}
	if len(analyzers) == 0 {
		return fail(stderr, fmt.Errorf("golint: every analyzer is disabled"))
	}

	opts := Options{IncludeTests: *includeTests}
	dirs, err := ExpandDirs(fs.Args())
	if err != nil {
		return fail(stderr, err)
	}
	if len(dirs) == 0 {
		fmt.Fprintln(stderr, "rilvet: no Go packages matched")
		return 2
	}

	loader := NewLoader(opts)
	failed := false
	var results []*Result
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			return fail(stderr, err)
		}
		if pkg == nil {
			continue
		}
		res, err := Run(pkg, opts, analyzers...)
		if err != nil {
			return fail(stderr, err)
		}
		if len(res.Unsuppressed()) > 0 {
			failed = true
		}
		results = append(results, res)
		if !*jsonOut {
			if err := res.WriteText(stdout, *showSuppressed); err != nil {
				return fail(stderr, err)
			}
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			return fail(stderr, err)
		}
	}
	if *sarifPath != "" {
		w := stdout
		if *sarifPath != "-" {
			f, err := os.Create(*sarifPath)
			if err != nil {
				return fail(stderr, err)
			}
			werr := WriteSARIF(f, results)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				return fail(stderr, werr)
			}
		} else if err := WriteSARIF(w, results); err != nil {
			return fail(stderr, err)
		}
	}
	if failed {
		return 1
	}
	return 0
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "rilvet:", err)
	return 2
}
