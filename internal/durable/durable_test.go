package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/testutil"
)

// noTemps fails the test if a *.tmp file is left in dir.
func noTemps(t *testing.T, dir string) {
	t.Helper()
	left, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("temp files left behind: %v", left)
	}
}

// TestWriteFileCrash tears the temp file's write at every byte budget:
// WriteFile must fail, an existing target must keep its previous
// bytes, an absent target must stay absent, and no temp file may
// remain. The budget equal to the data's length is a complete write.
func TestWriteFileCrash(t *testing.T) {
	dir := t.TempDir()
	present := filepath.Join(dir, "present.json")
	absent := filepath.Join(dir, "absent.json")
	old := []byte(`{"version":1,"jobs":[]}` + "\n")
	if err := WriteFile(present, old); err != nil {
		t.Fatal(err)
	}
	data := []byte(`{"version":1,"jobs":[{"name":"c17","status":"done"}]}` + "\n")

	orig := NewSink
	t.Cleanup(func() { NewSink = orig })
	for budget := 0; budget < len(data); budget++ {
		NewSink = func(f *os.File) Sink { return testutil.NewFaultyWriter(f, budget) }
		for _, path := range []string{present, absent} {
			if err := WriteFile(path, data); err == nil {
				t.Fatalf("budget %d: torn write of %s reported success", budget, filepath.Base(path))
			}
		}
		if got, err := os.ReadFile(present); err != nil || !bytes.Equal(got, old) {
			t.Fatalf("budget %d: existing target now %q (%v), want its previous bytes", budget, got, err)
		}
		if _, err := os.Stat(absent); !os.IsNotExist(err) {
			t.Fatalf("budget %d: absent target appeared (%v)", budget, err)
		}
		noTemps(t, dir)
	}

	NewSink = func(f *os.File) Sink { return testutil.NewFaultyWriter(f, len(data)) }
	for _, path := range []string{present, absent} {
		if err := WriteFile(path, data); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s = %q (%v), want the bytes written", filepath.Base(path), got, err)
		}
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if perm := info.Mode().Perm(); perm != 0o600 {
			t.Fatalf("%s has mode %v, want 0600", filepath.Base(path), perm)
		}
	}
	noTemps(t, dir)
}

// TestWriteFileMissingDir checks that both functions report a missing
// directory instead of creating it.
func TestWriteFileMissingDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "gone")
	if err := WriteFile(filepath.Join(dir, "f"), []byte("x")); err == nil || !strings.Contains(err.Error(), "gone") {
		t.Fatalf("WriteFile into a missing directory = %v, want an error naming it", err)
	}
	if err := SyncDir(dir); err == nil {
		t.Fatal("SyncDir of a missing directory succeeded")
	}
}
