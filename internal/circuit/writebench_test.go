package circuit

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"testing"

	"repro/internal/netlist"
)

// benchPinCircuits returns every circuit the paper's Tables I and III
// key their cells on, plus c17, by the names TestWriteBenchPins uses.
func benchPinCircuits(t *testing.T) map[string]*netlist.Netlist {
	t.Helper()
	f, err := os.Open("../../testdata/c17.bench")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	c17, err := netlist.ParseBench("c17", f)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]*netlist.Netlist{"c17": c17}
	for _, name := range []string{"c7552", "b15", "s35932", "s38584", "b20"} {
		p, ok := ProfileByName(name)
		if !ok {
			t.Fatalf("no profile %s", name)
		}
		nl, err := p.Synthesize(0.1)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = nl
	}
	cep, err := CEPSuite("small")
	if err != nil {
		t.Fatal(err)
	}
	for name, nl := range cep {
		out["cep-"+name] = nl
	}
	return out
}

// TestWriteBenchPins pins the SHA-256 of WriteBench's text for every
// circuit the result cache keys Table I and III cells on. The text
// carries every gate name, so the pins hold the synthesizers' naming
// too: any change here orphans every cached table cell and moves
// every journal fingerprint.
func TestWriteBenchPins(t *testing.T) {
	want := map[string]string{
		"c17":         "fa0f8161064542a11ea8800cad62855758cb5bbdfacbf5379e5ca1cc208480d7",
		"c7552":       "ccb04cf2c2d6f7485f5cdbfa562a70842cff4a449646d1dbc6f43c4f30d1bbd7",
		"b15":         "0cabe9feed3b0fcb8573df5f029110ab3fa430e789918c42216cff88d87441b1",
		"s35932":      "9c322186d4b7a3450881f82be7271566bce81eb6ed812524d93e56acfbf595c4",
		"s38584":      "6c07888cca32c589ef8d2ec75083f1d20a0f1a07801bfaf29ab68f4c35994e50",
		"b20":         "b926f548ef95cb79596a2095729b34b0e79fe62d77890548553f40aea6217e9e",
		"cep-AES":     "2fe91d303e6f4dac52d01512d5de01f423a6c9a780c8174e637935f3ee2c8cab",
		"cep-SHA-256": "c986266957d768a666f8b6e62164ae04a08853d207e66c07772b623cc8241a43",
		"cep-MD5":     "364169afcefa1d1675342642345840c7341f5d68ff0f34974ad491d83805e64c",
		"cep-GPS":     "45a2b92c12f70b04c6d94ec28c4da7c46b20805323dc6f8cb4c3bd4de5a645ba",
		"cep-DES":     "a7f99e8d76ddb6ea4faf43f0eb2e489b813cda87763196612e801aae653bf325",
		"cep-FIR":     "f7618f1d57b91a53e917fa3878a671dec5183746a5abf04cbb64fbd6d3df8d48",
	}
	got := benchPinCircuits(t)
	if len(got) != len(want) {
		t.Fatalf("%d circuits, want %d", len(got), len(want))
	}
	for name, nl := range got {
		h := sha256.New()
		if err := nl.WriteBench(h); err != nil {
			t.Fatal(err)
		}
		if sum := hex.EncodeToString(h.Sum(nil)); sum != want[name] {
			t.Errorf("%s: WriteBench SHA-256 %s, want %s", name, sum, want[name])
		}
	}
}

// TestWriteBenchAllocs: WriteBench assembles its text in the writer's
// buffer, so its allocations do not grow with the circuit. c7552@0.1
// (several hundred gates) may need at most two more than c17.
func TestWriteBenchAllocs(t *testing.T) {
	nls := benchPinCircuits(t)
	allocs := func(nl *netlist.Netlist) float64 {
		return testing.AllocsPerRun(20, func() {
			if err := nl.WriteBench(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(nls["c17"]), allocs(nls["c7552"])
	t.Logf("WriteBench allocations: c17 %.0f, c7552@0.1 %.0f", small, large)
	if large > small+2 || large > 10 {
		t.Errorf("WriteBench allocates %.0f times on c7552@0.1 and %.0f on c17, want at most %.0f and 10",
			large, small, small+2)
	}
}

// TestCEPSuiteAllocs bounds the allocations of synthesizing the small
// CEP cores: gates copy their fanin into arrays the netlist owns, names
// are built with one allocation each, and the AES S-box is computed
// once.
func TestCEPSuiteAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := CEPSuite("small"); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("CEPSuite(\"small\") allocations: %.0f", allocs)
	if allocs > 16000 {
		t.Errorf("CEPSuite(\"small\") allocates %.0f times, want at most 16000", allocs)
	}
}
