package netlint_test

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/netlint"
	"repro/internal/netlist"
	"repro/internal/testutil"
)

func loadC17(t *testing.T) *netlist.Netlist {
	t.Helper()
	f, err := os.Open("../../testdata/c17.bench")
	if err != nil {
		t.Fatalf("open c17: %v", err)
	}
	defer f.Close()
	nl, err := netlist.ParseBench("c17", f)
	if err != nil {
		t.Fatalf("parse c17: %v", err)
	}
	return nl
}

func runAudit(t *testing.T, nl *netlist.Netlist, opts netlint.Options) *netlint.Result {
	t.Helper()
	res, err := netlint.Run(nl, opts, netlint.All()...)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// The planted fixture has seven nominal bits and three effective ones;
// the audit must find that exactly, name every planted bit, and carry
// only structural/exhaustive proofs (12 inputs is under the
// exhaustive ceiling).
func TestAuditPlantedFixture(t *testing.T) {
	locked, _, _, scan := testutil.PlantAuditFixture(t, loadC17(t))
	res := runAudit(t, locked, netlint.Options{Scan: scan})
	rep := res.Resilience
	if rep == nil {
		t.Fatal("no resilience report")
	}
	if rep.Nominal != 7 || rep.Effective != 3 {
		t.Fatalf("effective key length %d of %d, want 3 of 7\nreport: %+v", rep.Effective, rep.Nominal, rep)
	}
	if !rep.Exact {
		t.Errorf("report conservative, want exact: %+v", rep)
	}
	prunedClass := map[string]string{}
	for _, pr := range rep.Pruned {
		prunedClass[pr.Key] = pr.Class
	}
	if prunedClass["keyinput1"] != netlint.ClassDiscarded {
		t.Errorf("keyinput1: class %q, want discarded (pruned: %+v)", prunedClass["keyinput1"], rep.Pruned)
	}
	if prunedClass["keyinput6"] != netlint.ClassRecovered {
		t.Errorf("keyinput6: class %q, want recovered (pruned: %+v)", prunedClass["keyinput6"], rep.Pruned)
	}
	if len(prunedClass) != 2 {
		t.Errorf("pruned %d distinct bits, want 2: %+v", len(prunedClass), rep.Pruned)
	}
	linked := map[string]bool{}
	for _, g := range rep.Linked {
		linked[strings.Join(g.Keys, "+")] = true
	}
	for _, want := range []string{"keyinput2+keyinput3", "keyinput4+keyinput5"} {
		if !linked[want] {
			t.Errorf("missing linked group %s (linked: %+v)", want, rep.Linked)
		}
	}
	// Every planted-redundant bit must be named in an Error-level
	// diagnostic, and the headline must state the metric.
	wantNamed := []string{"keyinput1", "keyinput2", "keyinput3", "keyinput4", "keyinput5", "keyinput6"}
	var headline bool
	for _, name := range wantNamed {
		found := false
		for _, d := range res.Diagnostics {
			if d.Severity == netlint.Error && strings.Contains(d.Message, `"`+name+`"`) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("planted bit %s not named in any Error diagnostic", name)
		}
	}
	for _, d := range res.Diagnostics {
		if d.Analyzer == "resilience" && strings.Contains(d.Message, "effective key length 3 of 7") {
			headline = true
		}
	}
	if !headline {
		t.Errorf("missing headline resilience diagnostic; got %+v", res.Diagnostics)
	}
}

// A clean XOR lock (distinct wires, no planted redundancy) must keep
// its full nominal key length under the audit.
func TestAuditCleanXORLock(t *testing.T) {
	locked, _, _ := testutil.XORLock(t, loadC17(t), 3, 7)
	res := runAudit(t, locked, netlint.Options{})
	rep := res.Resilience
	if rep == nil {
		t.Fatal("no resilience report")
	}
	if rep.Effective != rep.Nominal || rep.Nominal != 3 {
		t.Fatalf("effective %d of %d, want 3 of 3\npruned: %+v\nlinked: %+v",
			rep.Effective, rep.Nominal, rep.Pruned, rep.Linked)
	}
	if res.HasErrors() {
		t.Fatalf("clean lock has Error diagnostics: %+v", res.Errors())
	}
}

// Forced-constant key logic must be caught by both the cofactor sweep
// (output-irrelevant) and the removal matcher (replaceable cone),
// deduplicating to a single pruned bit.
func TestAuditForcedConstantBit(t *testing.T) {
	nl := netlist.New("forced")
	a := nl.AddInput("a")
	k := nl.AddInput("keyinput0")
	zero := nl.AddGate("zero", netlist.Const0)
	dead := nl.AddGate("dead", netlist.And, k, zero)
	nl.MarkOutput(nl.AddGate("y", netlist.Xor, a, dead))
	res := runAudit(t, nl, netlint.Options{})
	rep := res.Resilience
	if rep == nil || rep.Effective != 0 || rep.Nominal != 1 {
		t.Fatalf("want effective 0 of 1, got %+v", rep)
	}
	seenAnalyzer := map[string]bool{}
	for _, pr := range rep.Pruned {
		if pr.Key != "keyinput0" {
			t.Errorf("pruned unexpected key %q", pr.Key)
		}
		seenAnalyzer[pr.Analyzer] = true
	}
	if !seenAnalyzer["key-const-prop"] || !seenAnalyzer["removal-vulnerability"] {
		t.Errorf("want prunes from both key-const-prop and removal-vulnerability, got %+v", rep.Pruned)
	}
}

// A key bit fed only into a 2-input AND with a primary input is
// dominated there (Warn), and a MUX steered by key logic over a
// key-free branch is a bypass candidate (Warn).
func TestAuditDominationAndBypassWarns(t *testing.T) {
	nl := netlist.New("dom")
	a := nl.AddInput("a")
	b := nl.AddInput("b")
	k := nl.AddInput("keyinput0")
	and := nl.AddGate("mask", netlist.And, k, a)
	nl.MarkOutput(nl.AddGate("y", netlist.Xor, and, b))
	res := runAudit(t, nl, netlint.Options{})
	var dominated bool
	for _, d := range res.Diagnostics {
		if d.Analyzer == "key-equivalence" && strings.Contains(d.Message, "dominated") {
			dominated = true
		}
	}
	if !dominated {
		t.Errorf("missing domination warn: %+v", res.Diagnostics)
	}

	nl2 := netlist.New("bypass")
	a2 := nl2.AddInput("a")
	b2 := nl2.AddInput("b")
	k2 := nl2.AddInput("keyinput0")
	mux := nl2.AddGate("m", netlist.Mux, k2, a2, b2)
	nl2.MarkOutput(mux)
	res2 := runAudit(t, nl2, netlint.Options{})
	var bypass bool
	for _, d := range res2.Diagnostics {
		if d.Analyzer == "removal-vulnerability" && strings.Contains(d.Message, "bypass") {
			bypass = true
		}
	}
	if !bypass {
		t.Errorf("missing MUX bypass warn: %+v", res2.Diagnostics)
	}
}

// Registering an analyzer twice — via the default set plus an
// explicit repeat — must not duplicate findings (satellite dedup fix).
func TestRunDedupesDoubleRegistration(t *testing.T) {
	build := func() *netlist.Netlist {
		nl := netlist.New("dup")
		a := nl.AddInput("a")
		nl.AddInput("keyinput0") // dead key bit: guaranteed finding
		nl.MarkOutput(nl.AddGate("y", netlist.Not, a))
		return nl
	}
	single, err := netlint.Run(build(), netlint.Options{}, netlint.Hygiene()...)
	if err != nil {
		t.Fatal(err)
	}
	doubled, err := netlint.Run(build(), netlint.Options{},
		append(netlint.Hygiene(), netlint.Hygiene()...)...)
	if err != nil {
		t.Fatal(err)
	}
	if len(doubled.Diagnostics) != len(single.Diagnostics) {
		t.Fatalf("double registration changed findings: %d vs %d\n%+v",
			len(doubled.Diagnostics), len(single.Diagnostics), doubled.Diagnostics)
	}
	if len(doubled.Analyzers) != len(single.Analyzers) {
		t.Fatalf("double registration changed analyzer list: %v", doubled.Analyzers)
	}
}

// The audit must be deterministic end to end: two runs over the same
// fixture serialize identically.
func TestAuditDeterministic(t *testing.T) {
	run := func() []byte {
		locked, _, _, scan := testutil.PlantAuditFixture(t, loadC17(t))
		res := runAudit(t, locked, netlint.Options{Scan: scan})
		j, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	if a, b := run(), run(); string(a) != string(b) {
		t.Fatalf("audit not deterministic:\n%s\n%s", a, b)
	}
}

// Sampled proofs (inputs above the exhaustive ceiling) must mark the
// report conservative, never exact.
func TestAuditConservativeAboveExhaustiveCeiling(t *testing.T) {
	orig := testutil.RandomCircuit(t, 20, 4, 60, 5)
	locked, _, _, scan := testutil.PlantAuditFixture(t, orig)
	res := runAudit(t, locked, netlint.Options{Scan: scan, AuditExhaustive: 4})
	rep := res.Resilience
	if rep == nil {
		t.Fatal("no resilience report")
	}
	if rep.Exact {
		t.Fatalf("27-input fixture audited with AuditExhaustive=4 claims an exact report: %+v", rep)
	}
	if rep.Effective >= rep.Nominal {
		t.Fatalf("planted redundancy not found: %+v", rep)
	}
}

// A key bit that selects between NAND(a,b) and OR(¬a,¬b), one function
// by De Morgan, is output-irrelevant, and the hashed cofactors prove it
// structurally although the circuit has more inputs than the
// exhaustive ceiling. Constant folding with hash-consing could not
// prove it, so the audit only warned on a sampled verdict.
func TestAuditDeMorganKeyPrunedStructurally(t *testing.T) {
	nl := netlist.New("demorgan")
	a, b := nl.AddInput("a"), nl.AddInput("b")
	k := nl.AddInput("keyinput0")
	nand := nl.AddGate("nand", netlist.Nand, a, b)
	or := nl.AddGate("or", netlist.Or, nl.AddGate("na", netlist.Not, a), nl.AddGate("nb", netlist.Not, b))
	nl.MarkOutput(nl.AddGate("y", netlist.Mux, k, nand, or))
	// A parity output over 18 more inputs puts the cofactors above the
	// default AuditExhaustive ceiling of 16.
	acc := nl.AddInput("c0")
	for i := 1; i < 18; i++ {
		acc = nl.AddGate(fmt.Sprintf("p%d", i), netlist.Xor, acc, nl.AddInput(fmt.Sprintf("c%d", i)))
	}
	nl.MarkOutput(acc)
	res, err := netlint.Run(nl, netlint.Options{}, netlint.KeyConstProp)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Resilience
	if rep == nil || len(rep.Pruned) != 1 {
		t.Fatalf("want keyinput0 pruned, got %+v\n%+v", rep, res.Diagnostics)
	}
	if pr := rep.Pruned[0]; pr.Key != "keyinput0" || pr.Class != netlint.ClassDiscarded || pr.Proof != netlint.ProofStructural {
		t.Errorf("pruned %+v, want keyinput0 discarded with a structural proof", pr)
	}
	if !rep.Exact || rep.Effective != 0 {
		t.Errorf("report %+v, want exact with effective 0", rep)
	}
}
