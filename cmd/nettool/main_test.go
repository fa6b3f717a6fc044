package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/baselines"
	"repro/internal/netlist"
)

// runCLI drives the command exactly as main does, minus os.Exit.
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// writeBench writes .bench text into the test's directory.
func writeBench(t *testing.T, name, text string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// x∧(y∨z) and its distributed form are equal but share no AND or OR
// node, so structural hashing leaves a miter for the solver; the
// third circuit differs from both where x=0 and z=1.
const (
	factored = `INPUT(x)
INPUT(y)
INPUT(z)
OUTPUT(o)
t = OR(y, z)
o = AND(x, t)
`
	distributed = `INPUT(x)
INPUT(y)
INPUT(z)
OUTPUT(o)
p = AND(x, y)
q = AND(x, z)
o = OR(p, q)
`
	unequal = `INPUT(x)
INPUT(y)
INPUT(z)
OUTPUT(o)
p = AND(x, y)
o = OR(p, z)
`
)

func TestEquivExitCodes(t *testing.T) {
	a := writeBench(t, "factored.bench", factored)
	b := writeBench(t, "distributed.bench", distributed)
	cases := []struct {
		name string
		args []string
		code int
		out  string
	}{
		{"equal", []string{"-in", a, "-equiv", b}, 0, "EQUIVALENT\n"},
		{"undecided", []string{"-in", a, "-equiv", b, "-timeout", "1ns"}, 3, "UNDECIDED (timeout)\n"},
		{"missing-file", []string{"-in", a, "-equiv", filepath.Join(t.TempDir(), "none.bench")}, 2, ""},
		{"no-in", []string{"-equiv", b}, 2, ""},
		{"bad-flag", []string{"-nosuchflag"}, 2, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runCLI(t, tc.args...)
			if code != tc.code || stdout != tc.out {
				t.Fatalf("args %v: exit %d, stdout %q, want %d, %q\nstderr:\n%s", tc.args, code, stdout, tc.code, tc.out, stderr)
			}
		})
	}
}

// TestEquivCounterexample checks that an unequal pair prints a
// counterexample that tells the circuits apart in simulation.
func TestEquivCounterexample(t *testing.T) {
	a := writeBench(t, "factored.bench", factored)
	b := writeBench(t, "unequal.bench", unequal)
	code, stdout, stderr := runCLI(t, "-in", a, "-equiv", b)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	bits, ok := strings.CutPrefix(stdout, "NOT EQUIVALENT (counterexample inputs: [")
	bits, ok2 := strings.CutSuffix(bits, "])\n")
	if !ok || !ok2 {
		t.Fatalf("stdout %q", stdout)
	}
	var cex []bool
	for _, f := range strings.Fields(bits) {
		cex = append(cex, f == "true")
	}
	var outs [][]bool
	for _, text := range []string{factored, unequal} {
		nl, err := netlist.ParseBench("t", strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		sim, err := netlist.NewSimulator(nl)
		if err != nil {
			t.Fatal(err)
		}
		if len(cex) != len(nl.Inputs) {
			t.Fatalf("counterexample %v has %d bits, want %d", cex, len(cex), len(nl.Inputs))
		}
		outs = append(outs, sim.Eval(cex))
	}
	if slices.Equal(outs[0], outs[1]) {
		t.Fatalf("counterexample %v does not tell the circuits apart: both give %v", cex, outs[0])
	}
}

// TestBindKeyC17 locks c17 as `locker -scheme ril -size 2x2 -blocks 1
// -seed 17` does, writes the locked netlist and key file the way locker
// writes them, and checks that binding the key gives back c17.
func TestBindKeyC17(t *testing.T) {
	const c17 = "../../testdata/c17.bench"
	orig, err := load(c17)
	if err != nil {
		t.Fatal(err)
	}
	l, _, err := baselines.LockScheme("ril", orig, baselines.Params{Size: "2x2", Blocks: 1, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	var bench bytes.Buffer
	if err := l.Netlist.WriteBench(&bench); err != nil {
		t.Fatal(err)
	}
	locked := writeBench(t, "locked.bench", bench.String())
	key := filepath.Join(t.TempDir(), "key.txt")
	if err := os.WriteFile(key, []byte(strings.Join(l.Netlist.KeyLines(l.KeyPos, l.Key), "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runCLI(t, "-in", locked, "-bindkey", key, "-equiv", c17)
	if code != 0 || stdout != "EQUIVALENT\n" {
		t.Fatalf("exit %d, stdout %q, want 0, EQUIVALENT\nstderr:\n%s", code, stdout, stderr)
	}
}

// TestEquivWritesOut checks that -out is written before -equiv's
// proof, whatever the verdict, while the exit status stays the
// verdict's and stdout holds only the verdict.
func TestEquivWritesOut(t *testing.T) {
	a := writeBench(t, "factored.bench", factored)
	for _, tc := range []struct {
		name, other string
		code        int
		verdict     string
	}{
		{"equal", distributed, 0, "EQUIVALENT\n"},
		{"unequal", unequal, 1, "NOT EQUIVALENT"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "out.bench")
			code, stdout, stderr := runCLI(t, "-in", a, "-opt", "-out", out, "-equiv", writeBench(t, "other.bench", tc.other))
			if code != tc.code || !strings.HasPrefix(stdout, tc.verdict) || strings.Count(stdout, "\n") != 1 {
				t.Fatalf("exit %d, stdout %q, want %d and only the verdict %q\nstderr:\n%s", code, stdout, tc.code, tc.verdict, stderr)
			}
			if _, err := load(out); err != nil {
				t.Fatalf("-out with -equiv: %v", err)
			}
			if code, stdout, _ := runCLI(t, "-in", out, "-equiv", a); code != 0 {
				t.Fatalf("the written netlist is not the input's function: %s", stdout)
			}
		})
	}
}
