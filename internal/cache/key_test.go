package cache

import (
	"strings"
	"testing"

	"repro/internal/netlist"
)

func TestCanonicalJSON(t *testing.T) {
	cases := []struct {
		name string
		in   any
		want string
	}{
		{"sorted-keys", map[string]any{"b": 2, "a": 1}, `{"a":1,"b":2}`},
		{"zero-members-dropped", map[string]any{
			"n": nil, "f": false, "z": 0, "s": "", "a": []any{}, "o": map[string]any{}, "keep": 1,
		}, `{"keep":1}`},
		{"nested-zero-object", map[string]any{"o": map[string]any{"x": 0}}, `{}`},
		{"number-normalized", map[string]any{"x": 1.0, "y": 2.5}, `{"x":1,"y":2.5}`},
		{"array-keeps-zeros", []any{0, "", false, nil}, `[0,"",false,null]`},
		{"scalar", 42, `42`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := CanonicalJSON(tc.in)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != tc.want {
				t.Fatalf("CanonicalJSON(%v) = %s, want %s", tc.in, got, tc.want)
			}
		})
	}
}

// TestCanonicalJSONStructVsMap: an options struct with explicit
// defaults canonicalizes identically to a map that omits them — the
// property FuzzCacheKeyCanonical exercises at scale.
func TestCanonicalJSONStructVsMap(t *testing.T) {
	type opts struct {
		Blocks  int    `json:"blocks"`
		Size    string `json:"size"`
		NoLint  bool   `json:"nolint"`
		Timeout int64  `json:"timeout"`
	}
	a, err := CanonicalJSON(opts{Blocks: 3, Size: "8x8"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := CanonicalJSON(map[string]any{"size": "8x8", "blocks": 3})
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("struct %s != map %s", a, b)
	}
}

func TestKeyBuilder(t *testing.T) {
	mk := func(kind string, blocks int, seed int64) Key {
		k, err := NewKey(kind).
			Options("opts", map[string]any{"blocks": blocks}).
			Int("seed", seed).
			Key()
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	base := mk("table", 3, 1)
	if !base.Valid() || len(base.String()) != 64 {
		t.Fatalf("bad key %q", base.String())
	}
	if (Key{}).Valid() || (Key{}).String() != "" {
		t.Fatal("zero key must be invalid and render empty")
	}
	if same := mk("table", 3, 1); same != base {
		t.Fatal("identical inputs produced different keys")
	}
	if mk("other", 3, 1) == base {
		t.Fatal("kind not mixed into key")
	}
	if mk("table", 4, 1) == base {
		t.Fatal("options not mixed into key")
	}
	if mk("table", 3, 2) == base {
		t.Fatal("seed not mixed into key")
	}
}

// TestKeyNetlistCanonical: two textually different spellings of the
// same circuit hash to the same key, a structurally different circuit
// does not.
func TestKeyNetlistCanonical(t *testing.T) {
	parse := func(text string) *netlist.Netlist {
		nl, err := netlist.ParseBench("t", strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		return nl
	}
	a := parse("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n")
	b := parse("# same circuit, different formatting\nINPUT(a)\n\nINPUT(b)\nOUTPUT(y)\n  y = NAND( a , b )\n")
	c := parse("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOR(a, b)\n")
	key := func(nl *netlist.Netlist) Key {
		k, err := NewKey("t").Netlist("circuit", nl).Key()
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	if key(a) != key(b) {
		t.Fatal("formatting changed the netlist key")
	}
	if key(a) == key(c) {
		t.Fatal("different circuits share a key")
	}
	if _, err := NewKey("t").Netlist("circuit", nil).Key(); err == nil {
		t.Fatal("nil netlist must poison the builder")
	}
}

// TestKeyNetlistSum: a digest computed once and mixed in later keys
// exactly as Netlist does, and a nil netlist or the zero Digest still
// poisons the builder.
func TestKeyNetlistSum(t *testing.T) {
	nl, err := netlist.ParseBench("t", strings.NewReader("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n"))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := NewKey("t").Netlist("circuit", nl).Int("seed", 1).Key()
	if err != nil {
		t.Fatal(err)
	}
	sum := NetlistSum(nl)
	for i := 0; i < 2; i++ {
		k, err := NewKey("t").NetlistSum("circuit", sum).Int("seed", 1).Key()
		if err != nil {
			t.Fatal(err)
		}
		if k != direct {
			t.Fatalf("reuse %d: NetlistSum key %s, Netlist key %s", i, k, direct)
		}
	}
	for name, d := range map[string]Digest{"nil netlist": NetlistSum(nil), "zero Digest": {}} {
		if _, err := NewKey("t").NetlistSum("circuit", d).Key(); err == nil {
			t.Errorf("%s must poison the builder", name)
		}
	}
}

func TestSchemaVersionInKey(t *testing.T) {
	// The schema version is hashed via a labeled section; rather than
	// mutate the const, check that the very first section differs from
	// a builder that skips it (NewKey always includes it, so two
	// Builders with identical explicit sections still agree — the
	// version only changes keys when the const changes, which is the
	// point; here we just pin that kind alone doesn't collide with
	// kind+extra sections).
	a, _ := NewKey("k").Key()
	b, _ := NewKey("k").Bytes("x", nil).Key()
	if a == b {
		t.Fatal("section framing is ambiguous: empty Bytes section collided")
	}
}
