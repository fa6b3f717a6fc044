package main

import (
	"path/filepath"
	"testing"

	"repro/internal/report"
)

func TestFig6WritesCSVAndJSON(t *testing.T) {
	csvOut, jsonOut = t.TempDir(), t.TempDir()
	defer func() { csvOut, jsonOut = "", "" }()
	if err := run("fig6", report.AttackConfig{Seed: 1}, "", "", 10, 0); err != nil {
		t.Fatal(err)
	}
	for dir, ext := range map[string]string{csvOut: ".csv", jsonOut: ".json"} {
		names, err := filepath.Glob(filepath.Join(dir, "*"))
		if err != nil {
			t.Fatal(err)
		}
		if len(names) != 1 || filepath.Ext(names[0]) != ext {
			t.Errorf("%s holds %v, want one %s file", dir, names, ext)
		}
	}
}
