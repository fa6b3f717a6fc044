package attack

import (
	"bytes"
	"os"
	"slices"
	"testing"

	"repro/internal/baselines"
	"repro/internal/circuit"
	"repro/internal/netlint"
	"repro/internal/netlist"
	"repro/internal/testutil"
)

// The differential cross-validation the resilience audit's
// trustworthiness rests on (DESIGN.md §10): every key bit the audit
// discards must be output-irrelevant under the batched oracle, every
// parity-linked pair must be invariant under a joint flip, and a
// sound bit must visibly corrupt outputs when flipped — on both c17
// and c432.
func TestAuditPrunesAreOracleIrrelevant(t *testing.T) {
	c17 := func(t *testing.T) *netlist.Netlist {
		f, err := os.Open("../../testdata/c17.bench")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		nl, err := netlist.ParseBench("c17", f)
		if err != nil {
			t.Fatal(err)
		}
		return nl
	}
	c432 := func(t *testing.T) *netlist.Netlist {
		prof, ok := circuit.ProfileByName("c432")
		if !ok {
			t.Fatal("no c432 profile")
		}
		nl, err := prof.Synthesize(1.0)
		if err != nil {
			t.Fatal(err)
		}
		return nl
	}
	for name, load := range map[string]func(*testing.T) *netlist.Netlist{"c17": c17, "c432": c432} {
		t.Run(name, func(t *testing.T) {
			locked, keyPos, key, scan := testutil.PlantAuditFixture(t, load(t))
			res, err := netlint.Run(locked, netlint.Options{Scan: scan}, netlint.All()...)
			if err != nil {
				t.Fatalf("audit: %v", err)
			}
			rep := res.Resilience
			if rep == nil {
				t.Fatal("no resilience report")
			}
			if rep.Effective != 3 || rep.Nominal != 7 {
				t.Fatalf("effective %d of %d, want 3 of 7\n%+v", rep.Effective, rep.Nominal, rep)
			}
			bitOf := map[string]int{}
			for i, pos := range keyPos {
				bitOf[locked.Gates[locked.Inputs[pos]].Name] = i
			}
			const rounds, seed = 32, 99

			discarded := 0
			for _, pr := range rep.Pruned {
				if pr.Class != netlint.ClassDiscarded {
					continue
				}
				discarded++
				bit, ok := bitOf[pr.Key]
				if !ok {
					t.Fatalf("pruned key %q is not a key input", pr.Key)
				}
				e, err := KeyBitFlipError(locked, keyPos, key, bit, rounds, seed)
				if err != nil {
					t.Fatalf("flip error for %s: %v", pr.Key, err)
				}
				if e != 0 {
					t.Errorf("audit discarded %s but the oracle sees flip error %g — unsound prune", pr.Key, e)
				}
			}
			if discarded == 0 {
				t.Error("audit discarded no bit on the planted fixture")
			}

			for _, g := range rep.Linked {
				if g.Kind != netlint.LinkParity || len(g.Keys) != 2 {
					continue
				}
				b0, b1 := bitOf[g.Keys[0]], bitOf[g.Keys[1]]
				joint, err := KeyFlipError(locked, keyPos, key, []int{b0, b1}, rounds, seed)
				if err != nil {
					t.Fatal(err)
				}
				if joint != 0 {
					t.Errorf("parity group %v: joint flip error %g, want 0", g.Keys, joint)
				}
				solo, err := KeyBitFlipError(locked, keyPos, key, b0, rounds, seed)
				if err != nil {
					t.Fatal(err)
				}
				if solo == 0 {
					t.Errorf("parity group %v: member %s flips with zero error — should have been discarded outright", g.Keys, g.Keys[0])
				}
			}

			// Control: the sound bit must corrupt outputs when flipped.
			e, err := KeyBitFlipError(locked, keyPos, key, bitOf["keyinput0"], rounds, seed)
			if err != nil {
				t.Fatal(err)
			}
			if e == 0 {
				t.Error("control bit keyinput0 shows zero flip error; the differential test has no teeth")
			}
		})
	}
}

// TestAuditHashedProofsAgreeWithOracle checks, through the oracle,
// the verdicts the hashed cofactor proof added on two locks of c432 at
// scale 0.25, as benchgen and locker write them; constant folding with
// hash-consing left each a sampled warning. Under two 2×2 RIL-Blocks
// at seed 2 the hasher proves keyinput15 and keyinput17
// output-irrelevant: flipping either must change no output. Flipping
// keyinput7, 8 or 13, which stay sampled warnings, must not either,
// and the audit must not prune them. Under a 16-bit XOR lock at seed 1
// it proves keyinput6 and keyinput12 parity-linked: a joint flip must
// change no output, and a flip of either alone must.
func TestAuditHashedProofsAgreeWithOracle(t *testing.T) {
	prof, ok := circuit.ProfileByName("c432")
	if !ok {
		t.Fatal("no c432 profile")
	}
	orig, err := prof.Synthesize(0.25)
	if err != nil {
		t.Fatal(err)
	}
	orig = benchRoundTrip(t, orig)
	for _, tc := range []struct {
		scheme    string
		params    baselines.Params
		effective int
		pruned    []string
		linked    []string
		unpruned  []string
	}{
		{"ril", baselines.Params{Size: "2x2", Blocks: 2, Seed: 2}, 16,
			[]string{"keyinput15", "keyinput17"}, nil, []string{"keyinput7", "keyinput8", "keyinput13"}},
		{"xor", baselines.Params{KeyBits: 16, Seed: 1}, 14,
			nil, []string{"keyinput12", "keyinput6"}, nil},
	} {
		t.Run(tc.scheme, func(t *testing.T) {
			l, _, err := baselines.LockScheme(tc.scheme, orig, tc.params)
			if err != nil {
				t.Fatal(err)
			}
			locked, keyPos := benchRoundTrip(t, l.Netlist), l.KeyPos
			if got := locked.GateIDsByPrefix("keyinput"); !slices.Equal(got, keyPos) {
				t.Fatalf("key inputs at %v after the round trip, want %v", got, keyPos)
			}
			res, err := netlint.Run(locked, netlint.Options{}, netlint.All()...)
			if err != nil {
				t.Fatal(err)
			}
			rep := res.Resilience
			if rep == nil || rep.Nominal != len(keyPos) || rep.Effective != tc.effective {
				t.Fatalf("want effective %d of %d, got %+v", tc.effective, len(keyPos), rep)
			}
			var pruned []string
			for _, pr := range rep.Pruned {
				if pr.Proof == netlint.ProofStructural {
					pruned = append(pruned, pr.Key)
				}
			}
			if !slices.Equal(pruned, tc.pruned) {
				t.Fatalf("structurally pruned %v, want %v", pruned, tc.pruned)
			}
			if tc.linked != nil && !slices.ContainsFunc(rep.Linked, func(g netlint.LinkedKeyGroup) bool {
				return g.Kind == netlint.LinkParity && g.Proof == netlint.ProofStructural && slices.Equal(g.Keys, tc.linked)
			}) {
				t.Fatalf("no structural parity group %v in %+v", tc.linked, rep.Linked)
			}
			bitOf := map[string]int{}
			for i, pos := range keyPos {
				bitOf[locked.Gates[locked.Inputs[pos]].Name] = i
			}
			flip := func(names ...string) float64 {
				t.Helper()
				bits := make([]int, len(names))
				for i, n := range names {
					bits[i] = bitOf[n]
				}
				e, err := KeyFlipError(locked, keyPos, l.Key, bits, 32, 99)
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			for _, name := range append(slices.Clone(tc.pruned), tc.unpruned...) {
				if e := flip(name); e != 0 {
					t.Errorf("%s: flip error %g, want 0", name, e)
				}
			}
			if tc.linked != nil {
				if e := flip(tc.linked...); e != 0 {
					t.Errorf("parity group %v: joint flip error %g, want 0", tc.linked, e)
				}
				for _, name := range tc.linked {
					if flip(name) == 0 {
						t.Errorf("parity group %v: %s flips with zero error", tc.linked, name)
					}
				}
			}
		})
	}
}

// benchRoundTrip writes nl as .bench and parses it back, as the CLIs
// hand a netlist from one to the next.
func benchRoundTrip(t *testing.T, nl *netlist.Netlist) *netlist.Netlist {
	t.Helper()
	var buf bytes.Buffer
	if err := nl.WriteBench(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := netlist.ParseBench(nl.Name, &buf)
	if err != nil {
		t.Fatal(err)
	}
	return back
}
