package netlist

import (
	"reflect"
	"strings"
	"testing"
)

// TestParseKey: the key-file parser keeps well-formed lines and
// rejects each malformed one with an error naming its line.
func TestParseKey(t *testing.T) {
	cases := []struct {
		name string
		text string
		want map[string]bool
		err  string // substring of the error; "" = must parse
	}{
		{"plain", "k0=0\nk1=1\n", map[string]bool{"k0": false, "k1": true}, ""},
		{"comments-blanks-space", "# key\n\n  k0 = 1 \r\nk1=0", map[string]bool{"k0": true, "k1": false}, ""},
		{"empty", "", map[string]bool{}, ""},
		{"bad-bit", "k0=0\nk1=I\n", nil, `key f line 2: bit "I" is not 0 or 1`},
		{"bad-bit-word", "k0=true\n", nil, `key f line 1: bit "true" is not 0 or 1`},
		{"empty-bit", "k0=\n", nil, `key f line 1: bit "" is not 0 or 1`},
		{"duplicate", "k0=0\n# again\nk0=0\n", nil, `key f line 3: "k0" given twice`},
		{"empty-name", "k0=0\n = 1\n", nil, "key f line 2: empty name"},
		{"second-equals", "k0=0\nk1=1=1\n", nil, `key f line 2: want name=bit, got "k1=1=1"`},
		{"no-equals", "k0\n", nil, `key f line 1: want name=bit, got "k0"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ParseKey("f", tc.text)
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("ParseKey error %v, want it to contain %q", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("ParseKey = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestKeyLinesRoundTrip: KeyLines' text reads back through ParseKey
// and KeyFromNames to the same key, whatever the line order; a key
// input without a line is an error.
func TestKeyLinesRoundTrip(t *testing.T) {
	n := New("rt")
	for _, name := range []string{"a", "keyinput0", "b", "keyinput1", "keyinput2"} {
		n.AddInput(name)
	}
	keyPos := n.GateIDsByPrefix("keyinput")
	key := []bool{true, false, true}
	lines := n.KeyLines(keyPos, key)
	if want := []string{"keyinput0=1", "keyinput1=0", "keyinput2=1"}; !reflect.DeepEqual(lines, want) {
		t.Fatalf("KeyLines = %q, want %q", lines, want)
	}
	lines[0], lines[2] = lines[2], lines[0]
	byName, err := ParseKey("rt", strings.Join(lines, "\n")+"\n")
	if err != nil {
		t.Fatal(err)
	}
	got, err := n.KeyFromNames(keyPos, byName)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, key) {
		t.Fatalf("round trip gave %v, want %v", got, key)
	}
	delete(byName, "keyinput1")
	if _, err := n.KeyFromNames(keyPos, byName); err == nil || !strings.Contains(err.Error(), `"keyinput1"`) {
		t.Fatalf("missing key line: error %v, want it to name keyinput1", err)
	}
}
