package netlint

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/cnf"
	"repro/internal/netlist"
)

// Proof strengths for audit findings, ordered weakest to strongest.
// Structural proofs follow from the netlist graph alone, exhaustive
// proofs enumerate every input pattern of the checked cofactors, and
// sampled proofs rest on random 64-pattern simulation rounds — sound
// for inequivalence (a counterexample is a counterexample) but only
// probabilistic for equivalence. A sampled "equivalent" verdict is
// therefore reported as a warning, never pruned or linked, and marks
// the resilience report conservative rather than exact.
const (
	ProofSampled    = "sampled"
	ProofExhaustive = "exhaustive"
	ProofStructural = "structural"
)

// Classes of pruned key bits. A discarded bit is output-irrelevant:
// no assignment of it changes any primary output, so an oracle-less
// attacker strikes it from the key space. A recovered bit still
// matters functionally but its value leaks through a side channel
// (today: a functional scan chain), so the attacker reads it instead
// of searching for it. Both shrink the effective key length.
const (
	ClassDiscarded = "discarded"
	ClassRecovered = "recovered"
)

// Kinds of linked key groups. A parity group is proven by cofactor
// sweep: the outputs are invariant under jointly flipping the bits,
// so only their XOR matters. A funnel group is proven structurally:
// the bits reach the rest of the circuit only through one key-only
// gate, so only that wire's value matters.
const (
	LinkParity = "parity"
	LinkFunnel = "funnel"
)

// PrunedKeyBit records one key bit the audit removes from the
// effective key space, with the analyzer that proved it, the prune
// class, and the proof strength.
type PrunedKeyBit struct {
	Key      string `json:"key"`
	Analyzer string `json:"analyzer"`
	Class    string `json:"class"`
	Reason   string `json:"reason"`
	Proof    string `json:"proof"`
}

// LinkedKeyGroup records a set of key bits that collapse to a single
// effective bit: the circuit distinguishes assignments to the group
// only through one derived value (their parity, or a funnel wire).
type LinkedKeyGroup struct {
	Keys  []string `json:"keys"`
	Kind  string   `json:"kind"`
	Via   string   `json:"via"`
	Proof string   `json:"proof"`
}

// ResilienceReport is the headline result of the oracle-less audit:
// how many of the nominal key bits survive structural and functional
// pruning. Effective = Nominal − (unique pruned bits) − (per linked
// component, size−1). Every prune and link carries a structural or
// exhaustive proof, so Effective is always a sound upper bound on the
// attacker's remaining search space (the invariant the oracle
// cross-validation in internal/attack enforces, DESIGN.md §10). Exact
// reports whether it is also tight: false when a work cap truncated
// the pair sweep or a sampled equivalence check came back
// inconclusive, meaning further weaknesses may have gone undetected.
type ResilienceReport struct {
	Nominal   int              `json:"nominal"`
	Effective int              `json:"effective"`
	Exact     bool             `json:"exact"`
	Pruned    []PrunedKeyBit   `json:"pruned,omitempty"`
	Linked    []LinkedKeyGroup `json:"linked,omitempty"`
}

func (o Options) auditSeed() int64 {
	if o.AuditSeed == 0 {
		return 1
	}
	return o.AuditSeed
}

func (o Options) auditRounds() int {
	if o.AuditRounds <= 0 {
		return 8
	}
	return o.AuditRounds
}

func (o Options) auditExhaustive() int {
	switch {
	case o.AuditExhaustive <= 0:
		return 16
	case o.AuditExhaustive > 24:
		return 24
	}
	return o.AuditExhaustive
}

func (o Options) auditMaxPairs() int {
	if o.AuditMaxPairs <= 0 {
		return 512
	}
	return o.AuditMaxPairs
}

// resilience returns the run's resilience report, creating it (with
// the nominal key length) on first use. Audit analyzers call it only
// after establishing that key inputs exist.
func (p *Pass) resilience() *ResilienceReport {
	if p.resilienceRep == nil {
		p.resilienceRep = &ResilienceReport{Nominal: len(p.KeyInputs())}
	}
	return p.resilienceRep
}

// pruneKey records that the current analyzer removed the named key bit
// from the effective key space.
func (p *Pass) pruneKey(key, class, reason, proof string) {
	rep := p.resilience()
	rep.Pruned = append(rep.Pruned, PrunedKeyBit{
		Key: key, Analyzer: p.analyzer, Class: class, Reason: reason, Proof: proof,
	})
}

// linkKeys records that the named key bits collapse to one effective
// bit.
func (p *Pass) linkKeys(keys []string, kind, via, proof string) {
	rep := p.resilience()
	ks := append([]string(nil), keys...)
	sort.Strings(ks)
	rep.Linked = append(rep.Linked, LinkedKeyGroup{Keys: ks, Kind: kind, Via: via, Proof: proof})
}

// auditReady reports whether the netlist is simulatable (acyclic).
// The audit analyzers stay silent on broken netlists and leave the
// defect to comb-cycle/undriven, mirroring how type-dependent Go
// analyzers skip packages that do not compile.
func (p *Pass) auditReady() bool {
	if p.auditTopoOK == nil {
		_, err := p.Netlist.TopoOrder()
		ok := err == nil
		p.auditTopoOK = &ok
	}
	return *p.auditTopoOK
}

// AuditVersion identifies the audit's proofs, as
// attack.SensitizeVersion does Sensitize's search: 0 proved cofactors
// equal by constant-folding each with the optimizer and hash-consing
// the results, 1 encodes them into one structural hasher (cofactors).
// Version 1 proves every equality version 0 proved and more, so a
// verdict can move from a sampled warning to a structural prune. The
// keys of cached audit cells carry it.
const AuditVersion = 1

// cofactors encodes cofactors of the pass's netlist, the key inputs at
// positions pos bound to constants, into one structural hasher
// (cnf.Hasher) over shared literals for every other input. Logic the
// cofactors share becomes one node, and the constants fold through
// the rest. The hasher folds constants, x-op-x and NOT(NOT x), merges
// common subexpressions over sorted commutative operands and applies
// the MUX identities, which is everything constant folding followed by
// hash-consing proves, and adds complement edges, De Morgan and XOR
// and MUX polarity normalization. Two cofactors whose output literals
// are equal are therefore equivalent at any circuit size: the
// structural proof.
type cofactors struct {
	p   *Pass
	pos []int
	h   *cnf.Hasher
	in  []cnf.Lit
}

func (p *Pass) cofactors(pos ...int) *cofactors {
	h := cnf.NewHasher()
	return &cofactors{p: p, pos: pos, h: h, in: h.Inputs(len(p.Netlist.Inputs))}
}

// outputs returns the output literals of the cofactor that binds the
// key inputs to vals; an output the binding forces constant is
// LitFalse or LitTrue.
func (c *cofactors) outputs(vals []bool) ([]cnf.Lit, error) {
	in := slices.Clone(c.in)
	for i, q := range c.pos {
		in[q] = cnf.LitFalse
		if vals[i] {
			in[q] = cnf.LitTrue
		}
	}
	return c.h.Encode(c.p.Netlist, in)
}

// equivalent checks the cofactors that bind the key inputs to a and to
// b for functional equivalence and reports the proof strength actually
// used, with both cofactors' output literals. Equal literals prove it
// structurally. Failing that it binds both cofactor netlists and
// simulates them: exhaustively below the AuditExhaustive input-count
// ceiling, in sampled 64-pattern rounds above it (where only an
// inequivalence verdict is conclusive).
func (c *cofactors) equivalent(a, b []bool) (eq bool, proof string, outA, outB []cnf.Lit, err error) {
	if outA, err = c.outputs(a); err != nil {
		return false, "", nil, nil, err
	}
	if outB, err = c.outputs(b); err != nil {
		return false, "", nil, nil, err
	}
	if slices.Equal(outA, outB) {
		return true, ProofStructural, outA, outB, nil
	}
	nl := c.p.Netlist
	ca, err := nl.BindInputs(c.pos, a)
	if err != nil {
		return false, "", nil, nil, err
	}
	cb, err := nl.BindInputs(c.pos, b)
	if err != nil {
		return false, "", nil, nil, err
	}
	maxEx := c.p.Opts.auditExhaustive()
	proof = ProofSampled
	if netlist.Exhaustive(len(ca.Inputs), maxEx) {
		proof = ProofExhaustive
	}
	eq, _, err = netlist.Equivalent(ca, cb, maxEx, c.p.Opts.auditRounds(), c.p.Opts.auditSeed())
	return eq, proof, outA, outB, err
}

// weakerProof combines the proofs of a multi-part argument: the chain
// is only as strong as its weakest link.
func weakerProof(a, b string) string {
	if a == ProofSampled || b == ProofSampled {
		return ProofSampled
	}
	if a == ProofExhaustive || b == ProofExhaustive {
		return ProofExhaustive
	}
	return ProofStructural
}

// inputPositions maps primary-input gate IDs to their position in the
// input vector, cached across analyzers.
func (p *Pass) inputPositions() map[int]int {
	if p.inputPos == nil {
		p.inputPos = make(map[int]int, len(p.Netlist.Inputs))
		for pos, id := range p.Netlist.Inputs {
			p.inputPos[id] = pos
		}
	}
	return p.inputPos
}

// outputSet returns the set of primary-output gate IDs, cached.
func (p *Pass) outputSet() map[int]bool {
	if p.outputIDs == nil {
		p.outputIDs = make(map[int]bool, len(p.Netlist.Outputs))
		for _, o := range p.Netlist.Outputs {
			p.outputIDs[o] = true
		}
	}
	return p.outputIDs
}

// keyReachesOutput reports whether the key input's transitive fanout
// contains a primary output at all. Bits that reach none are dead key
// material — key-influence's finding, not the audit's.
func (p *Pass) keyReachesOutput(ki int) bool {
	return p.reachesOutputFrom(ki, -1)
}

// keyConfinedTo reports whether every path from key input ki to a
// primary output passes through gate g — i.e. removing g from the
// graph disconnects ki from all outputs. Callers must first establish
// that ki reaches an output at all.
func (p *Pass) keyConfinedTo(ki, g int) bool {
	return !p.reachesOutputFrom(ki, g)
}

// reachesOutputFrom walks the fanout graph from src, never expanding
// the barrier gate (pass -1 for none), and reports whether a primary
// output is reachable.
func (p *Pass) reachesOutputFrom(src, barrier int) bool {
	if src == barrier {
		return false
	}
	fanouts := p.Fanouts()
	outs := p.outputSet()
	if outs[src] {
		return true
	}
	seen := map[int]bool{src: true}
	stack := []int{src}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, f := range fanouts[id] {
			if f == barrier || seen[f] {
				continue
			}
			if outs[f] {
				return true
			}
			seen[f] = true
			stack = append(stack, f)
		}
	}
	return false
}

// quoteList renders "a", "b", "c" for diagnostics.
func quoteList(names []string) string {
	qs := make([]string, len(names))
	for i, n := range names {
		qs[i] = fmt.Sprintf("%q", n)
	}
	return strings.Join(qs, ", ")
}

// finalizeResilience closes the books after all analyzers ran:
// deduplicates prune and link records (identical records arise when an
// analyzer is registered twice), charges each pruned bit and each
// linked component against the nominal key length, and emits the
// headline effective-key-length diagnostic under the synthetic
// analyzer name "resilience".
//
// Accounting is deliberately conservative where findings overlap: a
// bit both pruned and linked counts once (as pruned); parity links
// compose linearly (flip-invariance vectors form a group, so a
// connected component of m bits has at least m−1 independent
// invariances and contributes exactly one effective bit); funnel
// groups are charged only for keys not already reduced elsewhere,
// because mixing a funnel constraint into a parity component does not
// in general preserve the m−1 rank argument.
func (p *Pass) finalizeResilience() *ResilienceReport {
	rep := p.resilienceRep
	if rep == nil {
		return nil
	}
	sort.Slice(rep.Pruned, func(i, j int) bool {
		a, b := rep.Pruned[i], rep.Pruned[j]
		if a.Key != b.Key {
			return a.Key < b.Key
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Reason < b.Reason
	})
	rep.Pruned = compact(rep.Pruned)
	sort.Slice(rep.Linked, func(i, j int) bool {
		a, b := rep.Linked[i], rep.Linked[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		ka, kb := strings.Join(a.Keys, ","), strings.Join(b.Keys, ",")
		if ka != kb {
			return ka < kb
		}
		return a.Via < b.Via
	})
	rep.Linked = compactGroups(rep.Linked)

	pruned := map[string]bool{}
	for _, pr := range rep.Pruned {
		pruned[pr.Key] = true
	}

	// Parity links: union-find over live (un-pruned) keys.
	parent := map[string]string{}
	var find func(string) string
	find = func(k string) string {
		r, ok := parent[k]
		if !ok {
			parent[k] = k
			return k
		}
		if r != k {
			r = find(r)
			parent[k] = r
		}
		return r
	}
	for _, g := range rep.Linked {
		if g.Kind != LinkParity {
			continue
		}
		var live []string
		for _, k := range g.Keys {
			if !pruned[k] {
				live = append(live, k)
			}
		}
		for i := 1; i < len(live); i++ {
			parent[find(live[i])] = find(live[0])
		}
	}
	compSize := map[string]int{}
	var members []string
	for k := range parent {
		members = append(members, k)
	}
	sort.Strings(members)
	used := map[string]bool{}
	for _, k := range members {
		compSize[find(k)]++
		used[k] = true
	}
	reduction := 0
	for _, size := range compSize {
		reduction += size - 1
	}

	// Funnel groups: charge keys not already reduced as pruned or
	// parity-linked; process in the sorted order fixed above.
	for _, g := range rep.Linked {
		if g.Kind != LinkFunnel {
			continue
		}
		var live []string
		for _, k := range g.Keys {
			if !pruned[k] && !used[k] {
				live = append(live, k)
			}
		}
		for _, k := range live {
			used[k] = true
		}
		if len(live) >= 2 {
			reduction += len(live) - 1
		}
	}

	eff := rep.Nominal - len(pruned) - reduction
	if eff < 0 {
		eff = 0
	}
	rep.Effective = eff
	// Prunes and links only ever carry structural or exhaustive proofs
	// (sampled verdicts warn without pruning), so Effective is a sound
	// upper bound on the attacker's search space in every mode. It is
	// exact only when no work cap truncated the sweep and no sampled
	// check came back inconclusive — otherwise weaknesses may have been
	// missed and the true effective length could be lower still.
	rep.Exact = !p.auditCapped && !p.auditSampled

	mode := "conservative"
	if rep.Exact {
		mode = "exact"
	}
	sev := Info
	if rep.Effective < rep.Nominal {
		sev = Warn
	}
	p.diags = append(p.diags, Diagnostic{
		Analyzer: "resilience",
		Severity: sev,
		GateID:   -1,
		Message: fmt.Sprintf("audit: effective key length %d of %d nominal bits (%s; %d pruned, %d linked group(s))",
			rep.Effective, rep.Nominal, mode, len(pruned), len(rep.Linked)),
	})
	return rep
}

func compact(in []PrunedKeyBit) []PrunedKeyBit {
	out := in[:0]
	for _, pr := range in {
		if len(out) == 0 || pr != out[len(out)-1] {
			out = append(out, pr)
		}
	}
	return out
}

func compactGroups(in []LinkedKeyGroup) []LinkedKeyGroup {
	out := in[:0]
	for _, g := range in {
		if len(out) > 0 {
			prev := out[len(out)-1]
			if g.Kind == prev.Kind && g.Via == prev.Via && g.Proof == prev.Proof &&
				strings.Join(g.Keys, ",") == strings.Join(prev.Keys, ",") {
				continue
			}
		}
		out = append(out, g)
	}
	return out
}
