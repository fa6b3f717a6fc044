package golint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr strings.Builder
	code := Main(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestCLIExitCodeContract(t *testing.T) {
	clean := filepath.Join("testdata", "src", "clean")
	bad := filepath.Join("testdata", "src", "rand-global")

	if code, _, _ := runCLI(t, clean); code != 0 {
		t.Errorf("clean package: exit %d, want 0", code)
	}
	if code, out, _ := runCLI(t, bad); code != 1 {
		t.Errorf("package with findings: exit %d, want 1\n%s", code, out)
	}
	if code, _, _ := runCLI(t); code != 2 {
		t.Errorf("no paths: exit %d, want 2", code)
	}
	if code, _, _ := runCLI(t, filepath.Join("testdata", "no-such-dir")); code != 2 {
		t.Errorf("missing path: exit %d, want 2", code)
	}
	if code, _, stderr := runCLI(t, "-analyzers", "nope", clean); code != 2 ||
		!strings.Contains(stderr, "unknown analyzer") {
		t.Errorf("unknown analyzer: exit %d stderr %q, want 2", code, stderr)
	}
	if code, _, _ := runCLI(t, "-disable", "nope", clean); code != 2 {
		t.Errorf("disabling unknown analyzer: exit %d, want 2", code)
	}

	var all []string
	for _, a := range All() {
		all = append(all, a.Name)
	}
	if code, _, _ := runCLI(t, "-disable", strings.Join(all, ","), clean); code != 2 {
		t.Errorf("everything disabled: exit %d, want 2", code)
	}

	// A syntactically broken file is an exit-2 parse failure, not a
	// finding.
	broken := t.TempDir()
	if err := os.WriteFile(filepath.Join(broken, "broken.go"), []byte("package {\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := runCLI(t, broken); code != 2 {
		t.Errorf("parse failure: exit %d, want 2", code)
	}
}

func TestCLIDisableTurnsFindingsOff(t *testing.T) {
	bad := filepath.Join("testdata", "src", "rand-global")
	if code, _, _ := runCLI(t, "-disable", "rand-global", bad); code != 0 {
		t.Errorf("with the only firing analyzer disabled: exit %d, want 0", code)
	}
	if code, _, _ := runCLI(t, "-analyzers", "sync-errcheck", bad); code != 0 {
		t.Errorf("with a non-firing analyzer selected: exit %d, want 0", code)
	}
}

func TestCLIList(t *testing.T) {
	code, out, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("-list: exit %d, want 0", code)
	}
	for _, a := range All() {
		if !strings.Contains(out, a.Name) {
			t.Errorf("-list output missing analyzer %q", a.Name)
		}
	}
}

// TestSelfLint runs rilvet over its own package: the linter must hold
// itself to the invariants it enforces on the rest of the repo.
func TestSelfLint(t *testing.T) {
	code, out, errout := runCLI(t, ".")
	if code != 0 {
		t.Fatalf("rilvet is not self-clean: exit %d\nstdout:\n%s\nstderr:\n%s", code, out, errout)
	}
}
