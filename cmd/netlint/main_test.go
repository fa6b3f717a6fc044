package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// runCLI drives the command exactly as main does, minus os.Exit.
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
	}{
		{"clean", []string{"testdata/clean.bench"}, 0},
		{"findings", []string{"-scan", "testdata/audit_redundant_scan.json", "testdata/audit_redundant.bench"}, 1},
		{"findings-json", []string{"-json", "-scan", "testdata/audit_redundant_scan.json", "testdata/audit_redundant.bench"}, 1},
		{"parse-error", []string{"testdata/broken.bench"}, 2},
		{"missing-file", []string{"testdata/nonexistent.bench"}, 2},
		{"bad-flag", []string{"-nosuchflag"}, 2},
		{"no-args", []string{}, 2},
		{"bad-severity", []string{"-severity", "fatal", "testdata/clean.bench"}, 2},
		{"bad-analyzer", []string{"-analyzers", "nope", "testdata/clean.bench"}, 2},
		{"bad-scan-json", []string{"-scan", "testdata/audit_redundant.bench", "testdata/clean.bench"}, 2},
		{"bad-key-bit", []string{"-key", "testdata/badbit.key", "testdata/clean.bench"}, 2},
		{"foreign-key", []string{"-key", "testdata/foreign.key", "testdata/clean.bench"}, 2},
		{"list", []string{"-list"}, 0},
		// Error findings fail the run even when the severity filter
		// hides them from the text output.
		{"errors-filtered-still-fail", []string{"-severity", "error", "-analyzers", "key-const-prop", "testdata/audit_redundant.bench"}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runCLI(t, tc.args...)
			if code != tc.code {
				t.Fatalf("args %v: exit %d, want %d\nstdout:\n%s\nstderr:\n%s", tc.args, code, tc.code, stdout, stderr)
			}
		})
	}
}

// TestGolden locks down the exact bytes of both output modes on the
// planted-redundancy fixture. The JSON form is the machine interface —
// field order and content must stay stable for downstream consumers.
// Regenerate with: go test ./cmd/netlint -run TestGolden -update
func TestGolden(t *testing.T) {
	cases := []struct {
		name   string
		golden string
		args   []string
	}{
		{"json", "audit_redundant.json", []string{"-json", "-scan", "testdata/audit_redundant_scan.json", "testdata/audit_redundant.bench"}},
		{"text", "audit_redundant.txt", []string{"-scan", "testdata/audit_redundant_scan.json", "testdata/audit_redundant.bench"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runCLI(t, tc.args...)
			if code != 1 {
				t.Fatalf("exit %d, want 1\nstderr:\n%s", code, stderr)
			}
			path := filepath.Join("testdata", tc.golden)
			if *update {
				if err := os.WriteFile(path, []byte(stdout), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if stdout != string(want) {
				t.Fatalf("output drifted from %s (regenerate with -update if intended)\ngot:\n%s\nwant:\n%s", path, stdout, want)
			}
		})
	}
}

// Two invocations over the same inputs must be byte-identical — the
// audit's sampled proofs are seeded, so nothing may leak run-to-run
// nondeterminism into the report.
func TestJSONDeterministic(t *testing.T) {
	args := []string{"-json", "-scan", "testdata/audit_redundant_scan.json", "testdata/audit_redundant.bench"}
	_, a, _ := runCLI(t, args...)
	_, b, _ := runCLI(t, args...)
	if a != b {
		t.Fatalf("JSON output not deterministic:\n%s\n---\n%s", a, b)
	}
}

func TestAnalyzerSubset(t *testing.T) {
	// Restricting to hygiene analyzers must hide the audit findings:
	// the planted fixture is hygiene-clean, so the run passes.
	code, stdout, stderr := runCLI(t,
		"-analyzers", "comb-cycle,const-lut,dead-gate,key-influence,scan-integrity,undriven",
		"testdata/audit_redundant.bench")
	if code != 0 {
		t.Fatalf("hygiene-only run: exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
}
