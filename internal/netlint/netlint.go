// Package netlint is a static analysis framework for gate-level
// netlists, modeled on the go/analysis driver pattern: each check is an
// *Analyzer with a name, a doc string and a Run function; a driver runs
// a configurable set of analyzers over one netlist and aggregates their
// Diagnostics into a Result with deterministic ordering and both
// machine-readable (JSON) and human-readable output.
//
// The checks guard the structural assumptions the locking and attack
// code silently make: no combinational cycles (switchbox insertion and
// optimizer rewrites can close loops), no undriven nets, no dead logic,
// and — security-critical — no key bits whose value cannot influence
// any primary output. Dead key material inflates the nominal key
// length without adding SAT iterations, the exact pitfall the
// InterLock and LUT-Lock literature warns about when routing or logic
// locking is applied naively; the key-influence analyzer therefore
// reports effective vs. nominal key length.
//
// Beyond hygiene, the package carries an oracle-less security audit
// layer (the Audit set): key-cofactor constant propagation,
// key-equivalence funnels, removal-vulnerability signatures and
// scan-exposure checks that together compute the effective key length
// an oracle-less attacker faces, reported as a ResilienceReport with
// per-finding proof strength. See DESIGN.md §10 for the metric's
// definition and its cross-validation against the oracle attacks.
//
// The framework is extensible: define an Analyzer, report through
// Pass.Report, and pass it to Run alongside (or instead of) the
// built-in sets returned by Hygiene, Audit and All.
package netlint

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/netlist"
)

// Severity classifies a diagnostic. Error-level findings make the
// netlist unusable or the lock weaker than its nominal key length and
// gate the emit paths in cmd/locker and the report package; Warn-level
// findings are suspicious but survivable; Info carries metrics.
type Severity uint8

// Severity levels, ordered least to most severe.
const (
	Info Severity = iota
	Warn
	Error
)

var severityNames = [...]string{Info: "info", Warn: "warn", Error: "error"}

func (s Severity) String() string {
	if int(s) < len(severityNames) {
		return severityNames[s]
	}
	return fmt.Sprintf("Severity(%d)", uint8(s))
}

// ParseSeverity resolves "info", "warn" or "error".
func ParseSeverity(s string) (Severity, error) {
	for sev, name := range severityNames {
		if name == s {
			return Severity(sev), nil
		}
	}
	return 0, fmt.Errorf("netlint: unknown severity %q (want info|warn|error)", s)
}

// MarshalJSON renders the severity as its lowercase name.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON parses a lowercase severity name.
func (s *Severity) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	sev, err := ParseSeverity(name)
	if err != nil {
		return err
	}
	*s = sev
	return nil
}

// Diagnostic is one finding of one analyzer. Gate anchors the finding
// to a netlist gate by name (empty for whole-netlist findings); GateID
// is the corresponding gate ID, or -1.
type Diagnostic struct {
	Analyzer string   `json:"analyzer"`
	Severity Severity `json:"severity"`
	Gate     string   `json:"gate,omitempty"`
	GateID   int      `json:"gate_id"`
	Message  string   `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s [%s] %s", d.Severity, d.Analyzer, d.Message)
}

// Analyzer is one static check, in the style of go/analysis: Run
// inspects pass.Netlist and reports findings through pass.Report. A
// non-nil error from Run means the analyzer itself failed (a driver
// problem, not a netlist finding) and aborts the whole run.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// ScanChainSpec declares one scan chain for the scan-integrity
// analyzer: its name, its declared width, and the netlist gate names of
// its cells in shift order. KeyChain marks the paper's secure
// configuration chain, whose cells must all be key inputs.
type ScanChainSpec struct {
	Name     string   `json:"name"`
	Width    int      `json:"width"`
	Cells    []string `json:"cells"`
	KeyChain bool     `json:"key_chain,omitempty"`
}

// ScanSpec is the full scan configuration checked against the
// netlist. Its JSON form is the cmd/netlint -scan file format.
type ScanSpec struct {
	Chains []ScanChainSpec `json:"chains"`
}

// Options configures a driver run.
type Options struct {
	// KeyPrefix identifies key inputs by name prefix. Empty means
	// "keyinput", the repo-wide default.
	KeyPrefix string
	// Key optionally supplies known key-bit values by key input name.
	// The const-lut analyzer needs it to evaluate LUT configurations;
	// without it that analyzer is silent.
	Key map[string]bool
	// Scan optionally supplies scan-chain declarations for the
	// scan-integrity and scan-exposure analyzers; without it both are
	// silent.
	Scan *ScanSpec

	// AuditSeed seeds the sampled checks of the resilience audit
	// analyzers. Zero means 1, so the default is deterministic.
	AuditSeed int64
	// AuditRounds is the number of 64-pattern random rounds for
	// sampled audit checks. Zero or negative means 8.
	AuditRounds int
	// AuditExhaustive is the input-count ceiling up to which audit
	// equivalence checks enumerate every pattern (an exact proof)
	// instead of sampling. Zero or negative means 16; capped at 24.
	AuditExhaustive int
	// AuditMaxPairs caps the key-bit pair sweep of key-const-prop.
	// Zero or negative means 512. Hitting the cap marks the
	// resilience report conservative.
	AuditMaxPairs int
}

// KeyInputPrefix is the name prefix of key inputs: KeyPrefix, or
// "keyinput" when it is empty.
func (o Options) KeyInputPrefix() string {
	if o.KeyPrefix == "" {
		return "keyinput"
	}
	return o.KeyPrefix
}

// Pass carries one analyzer's view of the run: the netlist, the
// options, and the reporting sink. Shared derived structures (fanout
// lists, the input set) are computed once and cached across analyzers.
type Pass struct {
	Netlist *netlist.Netlist
	Opts    Options

	diags     []Diagnostic
	analyzer  string
	keyReport *KeyReport

	fanouts  [][]int
	inputSet map[int]bool

	// Resilience-audit state, shared across the audit analyzers.
	resilienceRep *ResilienceReport
	auditCapped   bool
	// auditSampled is set whenever a sampled equivalence check came
	// back "no counterexample found" — an inconclusive verdict that is
	// reported as a warning but never pruned, and that downgrades the
	// resilience report from exact to conservative.
	auditSampled bool
	auditTopoOK  *bool
	inputPos     map[int]int
	outputIDs    map[int]bool
}

// Report records a diagnostic anchored at gate id (pass -1 for
// whole-netlist findings).
func (p *Pass) Report(sev Severity, id int, format string, args ...any) {
	d := Diagnostic{
		Analyzer: p.analyzer,
		Severity: sev,
		GateID:   id,
		Message:  fmt.Sprintf(format, args...),
	}
	if id >= 0 && id < len(p.Netlist.Gates) {
		d.Gate = p.Netlist.Gates[id].Name
	}
	p.diags = append(p.diags, d)
}

// Fanouts returns the cached per-gate fanout lists.
func (p *Pass) Fanouts() [][]int {
	if p.fanouts == nil {
		p.fanouts = p.Netlist.FanoutLists()
	}
	return p.fanouts
}

// IsPrimaryInput reports whether gate id is registered in the primary
// input list (as opposed to merely having type Input).
func (p *Pass) IsPrimaryInput(id int) bool {
	if p.inputSet == nil {
		p.inputSet = make(map[int]bool, len(p.Netlist.Inputs))
		for _, in := range p.Netlist.Inputs {
			p.inputSet[in] = true
		}
	}
	return p.inputSet[id]
}

// KeyInputs returns the gate IDs of primary inputs matching the key
// prefix, in input-vector order.
func (p *Pass) KeyInputs() []int {
	var ids []int
	prefix := p.Opts.KeyInputPrefix()
	for _, id := range p.Netlist.Inputs {
		if strings.HasPrefix(p.Netlist.Gates[id].Name, prefix) {
			ids = append(ids, id)
		}
	}
	return ids
}

// IsKeyInput reports whether gate id is a primary input with the key
// prefix.
func (p *Pass) IsKeyInput(id int) bool {
	return p.IsPrimaryInput(id) &&
		strings.HasPrefix(p.Netlist.Gates[id].Name, p.Opts.KeyInputPrefix())
}

// KeyBitInfluence records, for one key bit, how many primary outputs
// its value can structurally reach.
type KeyBitInfluence struct {
	Key     string `json:"key"`
	Outputs int    `json:"outputs"`
}

// HistBin is one bin of the key-influence histogram: Keys key bits each
// reach exactly Outputs primary outputs.
type HistBin struct {
	Outputs int `json:"outputs"`
	Keys    int `json:"keys"`
}

// KeyReport summarizes key-influence taint: the nominal key length, the
// effective key length (bits that reach at least one primary output),
// the per-bit influence, and the reachable-output-count histogram.
type KeyReport struct {
	Nominal   int               `json:"nominal"`
	Effective int               `json:"effective"`
	Influence []KeyBitInfluence `json:"influence"`
	Histogram []HistBin         `json:"histogram"`
}

// Result aggregates one driver run over one netlist.
type Result struct {
	Netlist     string            `json:"netlist"`
	Analyzers   []string          `json:"analyzers"`
	Diagnostics []Diagnostic      `json:"diagnostics"`
	KeyReport   *KeyReport        `json:"key_report,omitempty"`
	Resilience  *ResilienceReport `json:"resilience,omitempty"`
}

// Count returns the number of diagnostics at exactly the given
// severity.
func (r *Result) Count(sev Severity) int {
	c := 0
	for _, d := range r.Diagnostics {
		if d.Severity == sev {
			c++
		}
	}
	return c
}

// HasErrors reports whether any Error-level diagnostic was produced.
func (r *Result) HasErrors() bool { return r.Count(Error) > 0 }

// Errors returns the Error-level diagnostics.
func (r *Result) Errors() []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diagnostics {
		if d.Severity == Error {
			out = append(out, d)
		}
	}
	return out
}

// Hygiene returns the structural-hygiene analyzers: cheap graph
// checks every netlist must pass before it is emitted or attacked.
// This is the default set Run uses when no analyzers are given, and
// the set the locker's emit gate runs.
func Hygiene() []*Analyzer {
	return []*Analyzer{
		CombCycle, ConstLUT, DeadGate, KeyInfluence, ScanIntegrity, Undriven,
	}
}

// Audit returns the oracle-less resilience audit analyzers. They
// simulate and constant-fold key cofactors, so they cost orders of
// magnitude more than the hygiene set and are run as a dedicated
// audit stage (cmd/netlint, the ci.sh audit gate, report tables)
// rather than on every emit.
func Audit() []*Analyzer {
	return []*Analyzer{
		KeyConstProp, KeyEquivalence, RemovalVulnerability, ScanExposure,
	}
}

// All returns every built-in analyzer — hygiene and audit — sorted by
// name.
func All() []*Analyzer {
	as := append(Hygiene(), Audit()...)
	sort.Slice(as, func(i, j int) bool { return as[i].Name < as[j].Name })
	return as
}

// ByName resolves analyzer names against the built-in set.
func ByName(names ...string) ([]*Analyzer, error) {
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	out := make([]*Analyzer, 0, len(names))
	for _, name := range names {
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("netlint: unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// Run executes the analyzers (the hygiene set when none are given)
// over the netlist and returns the aggregated, deterministically
// sorted result. Diagnostics are ordered by (analyzer, gate ID,
// message) so output is stable across runs and map-iteration order,
// and each distinct (analyzer, gate, message) finding is reported
// once even when an analyzer is registered twice — e.g. via both the
// default set and an explicit list. When any audit analyzer ran
// against key inputs, Result.Resilience carries the finalized
// effective-key-length report and a headline diagnostic is emitted
// under the synthetic analyzer name "resilience".
func Run(nl *netlist.Netlist, opts Options, analyzers ...*Analyzer) (*Result, error) {
	if len(analyzers) == 0 {
		analyzers = Hygiene()
	}
	pass := &Pass{Netlist: nl, Opts: opts}
	res := &Result{Netlist: nl.Name}
	ran := map[string]bool{}
	for _, a := range analyzers {
		if ran[a.Name] {
			continue // double registration: run and report once
		}
		ran[a.Name] = true
		pass.analyzer = a.Name
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("netlint: analyzer %s: %w", a.Name, err)
		}
		res.Analyzers = append(res.Analyzers, a.Name)
	}
	res.Resilience = pass.finalizeResilience()
	sort.SliceStable(pass.diags, func(i, j int) bool {
		a, b := pass.diags[i], pass.diags[j]
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		if a.GateID != b.GateID {
			return a.GateID < b.GateID
		}
		return a.Message < b.Message
	})
	sort.Strings(res.Analyzers)
	res.Diagnostics = dedupeDiags(pass.diags)
	res.KeyReport = pass.keyReport
	return res, nil
}

// dedupeDiags drops adjacent duplicates of the (analyzer, gate,
// message) finding identity from a sorted diagnostic list, keeping
// the first (and with it the severity it carried).
func dedupeDiags(diags []Diagnostic) []Diagnostic {
	out := diags[:0]
	for _, d := range diags {
		if len(out) > 0 {
			prev := out[len(out)-1]
			if d.Analyzer == prev.Analyzer && d.GateID == prev.GateID && d.Message == prev.Message {
				continue
			}
		}
		out = append(out, d)
	}
	return out
}

// Check runs the analyzers and returns only the Error-level
// diagnostics — the convenience form used by emit-path gates.
func Check(nl *netlist.Netlist, opts Options, analyzers ...*Analyzer) ([]Diagnostic, error) {
	res, err := Run(nl, opts, analyzers...)
	if err != nil {
		return nil, err
	}
	return res.Errors(), nil
}
