package netlist

import (
	"strings"
	"testing"
)

// The strict parser must name the offending line and gate in every
// error path.
func TestParseBenchErrorContext(t *testing.T) {
	cases := []struct {
		src  string
		want []string // substrings the error must contain
	}{
		{"INPUT(a)\nINPUT(a)\ny = NOT(a)\nOUTPUT(y)", []string{"line 2", "INPUT(a)"}},
		{"INPUT(a)\ny = NOT(a)\ny = NOT(a)\nOUTPUT(y)", []string{"line 3", `"y"`}},
		{"INPUT(a)\nINPUT(b)\ny = NOT(a, b)\nOUTPUT(y)", []string{"line 3", `"y"`, "argument"}},
		{"INPUT(a)\ny = FROB(a)\nOUTPUT(y)", []string{"line 2", `"y"`, "FROB"}},
		{"INPUT(a)\nOUTPUT(y)\nz = NOT(a)", []string{"line 2", "OUTPUT(y)"}},
		{"INPUT(a)\nq = DFF(d)\nOUTPUT(q)", []string{"line 2", `"d"`}},
		{"INPUT(a)\nq = DFF(d, e)\nOUTPUT(q)", []string{"line 2", `"q"`, "1 argument"}},
		{"INPUT(a)\ny = AND(a, ghost)\nOUTPUT(y)", []string{"line 2", `"y"`}},
	}
	for _, tc := range cases {
		_, err := ParseBench("bad", strings.NewReader(tc.src))
		if err == nil {
			t.Errorf("ParseBench accepted %q", tc.src)
			continue
		}
		for _, want := range tc.want {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("ParseBench(%q) error %q missing %q", tc.src, err, want)
			}
		}
	}
}

func TestParseBenchLaxCycle(t *testing.T) {
	src := `INPUT(x)
OUTPUT(y)
y = AND(a, x)
a = OR(y, x)
`
	n, nDFF, err := ParseBenchLax("cyclic", strings.NewReader(src))
	if err != nil {
		t.Fatalf("ParseBenchLax: %v", err)
	}
	if nDFF != 0 {
		t.Fatalf("nDFF = %d, want 0", nDFF)
	}
	if _, err := n.TopoOrder(); err == nil {
		t.Fatal("expected the parsed netlist to contain a cycle")
	}
	// The strict parser must reject the same source.
	if _, _, err := ParseBenchSeq("cyclic", strings.NewReader(src)); err == nil {
		t.Fatal("strict parser accepted a cyclic netlist")
	}
}

func TestParseBenchLaxUndriven(t *testing.T) {
	src := `INPUT(a)
OUTPUT(y)
y = AND(a, ghost)
`
	n, _, err := ParseBenchLax("floating", strings.NewReader(src))
	if err != nil {
		t.Fatalf("ParseBenchLax: %v", err)
	}
	id, ok := n.GateID("ghost")
	if !ok {
		t.Fatal("dangling net not materialized")
	}
	if n.Gates[id].Type != Input {
		t.Fatalf("dangling net type = %s, want Input", n.Gates[id].Type)
	}
	for _, in := range n.Inputs {
		if in == id {
			t.Fatal("dangling net must not join the primary input list")
		}
	}
}

func TestParseBenchLaxUndefinedOutput(t *testing.T) {
	src := "INPUT(a)\nOUTPUT(y)\nz = NOT(a)\n"
	n, _, err := ParseBenchLax("undefout", strings.NewReader(src))
	if err != nil {
		t.Fatalf("ParseBenchLax: %v", err)
	}
	if len(n.Outputs) != 1 || n.Gates[n.Outputs[0]].Name != "y" {
		t.Fatalf("undefined OUTPUT not materialized: outputs %v", n.Outputs)
	}
}

// On well-formed sources the lax parser must agree with the strict one.
func TestParseBenchLaxMatchesStrict(t *testing.T) {
	src := `INPUT(a)
INPUT(b)
OUTPUT(s)
OUTPUT(q)
s = XOR(a, fwd)
fwd = AND(a, b)
q = DFF(s)
`
	strict, nStrict, err := ParseBenchSeq("agree", strings.NewReader(src))
	if err != nil {
		t.Fatalf("strict: %v", err)
	}
	lax, nLax, err := ParseBenchLax("agree", strings.NewReader(src))
	if err != nil {
		t.Fatalf("lax: %v", err)
	}
	if nStrict != nLax {
		t.Fatalf("nDFF: strict %d, lax %d", nStrict, nLax)
	}
	if err := lax.Validate(); err != nil {
		t.Fatalf("lax result invalid on sound input: %v", err)
	}
	eq, cex, err := Equivalent(strict, lax, 8, 4, 1)
	if err != nil {
		t.Fatalf("Equivalent: %v", err)
	}
	if !eq {
		t.Fatalf("lax parse differs from strict parse (cex %v)", cex)
	}
}
