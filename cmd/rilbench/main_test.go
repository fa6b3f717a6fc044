package main

import (
	"path/filepath"
	"reflect"
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

// TestSelectExps pins the experiments -exp all runs, in order, and
// that every other name selects itself alone.
func TestSelectExps(t *testing.T) {
	names := func(exp string) []string {
		t.Helper()
		exps, err := selectExps(exp)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, e := range exps {
			out = append(out, e.name)
		}
		return out
	}
	want := []string{"table1", "table2", "table3", "table4", "table5", "fig1", "fig6", "overhead", "psca", "ablation", "dynamic"}
	if got := names("all"); !reflect.DeepEqual(got, want) {
		t.Errorf("-exp all runs %v, want %v", got, want)
	}
	for _, name := range expNames() {
		if got := names(name); !reflect.DeepEqual(got, []string{name}) {
			t.Errorf("-exp %s runs %v", name, got)
		}
	}
	if _, err := selectExps("nope"); err == nil || err.Error() != `unknown experiment "nope"` {
		t.Errorf("-exp nope: error %v, want unknown experiment", err)
	}
}
