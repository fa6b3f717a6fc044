package cache

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
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

// TestCanonicalJSONNesting: a map or slice that holds itself fails, as
// json.Marshal fails on it, and a tree nested deeper than the direct
// writer goes keeps the reference's bytes.
func TestCanonicalJSONNesting(t *testing.T) {
	cyclic := map[string]any{"a": 1}
	cyclic["self"] = cyclic
	loop := make([]any, 1)
	loop[0] = loop
	for name, v := range map[string]any{"map": cyclic, "slice": loop} {
		if got, err := CanonicalJSON(v); err == nil {
			t.Errorf("a cyclic %s canonicalized to %.40q...", name, got)
		}
	}
	var deep any = "leaf"
	for i := 0; i < 3*maxDirectDepth+1; i++ {
		if i%2 == 0 {
			deep = []any{deep, i}
		} else {
			deep = map[string]any{"k": deep, "n": i}
		}
	}
	want, err := referenceCanonicalJSON(deep)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CanonicalJSON(deep)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("deep tree: %d bytes differ from the reference's %d", len(got), len(want))
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

// TestKeyRenderedOptions: an option set rendered once and mixed into
// later keys keys exactly as Options does, for maps and structs alike;
// a value CanonicalJSON rejects poisons the builder with Options' error,
// and so does the zero Rendered.
func TestKeyRenderedOptions(t *testing.T) {
	type opts struct {
		Blocks  int    `json:"blocks"`
		Size    string `json:"size"`
		NoLint  bool   `json:"nolint"`
		Timeout int64  `json:"timeout"`
	}
	for _, v := range []any{
		map[string]any{"timeout": int64(25e6), "portfolio": 0, "nolint": false, "search": 2},
		map[string]any{"blocks": 3, "size": "8x8", "nested": map[string]any{"b": []any{1, "x"}, "a": 1.0}},
		map[string]any{},
		opts{Blocks: 3, Size: "8x8"},
		&opts{NoLint: true, Timeout: 1},
		[]any{2, "x", nil},
		nil,
	} {
		direct, err := NewKey("t").Options("attack", v).Int("seed", 1).Key()
		if err != nil {
			t.Fatal(err)
		}
		r := RenderOptions(v)
		for i := 0; i < 2; i++ {
			k, err := NewKey("t").RenderedOptions("attack", r).Int("seed", 1).Key()
			if err != nil {
				t.Fatal(err)
			}
			if k != direct {
				t.Fatalf("%#v, reuse %d: RenderedOptions key %s, Options key %s", v, i, k, direct)
			}
		}
	}
	for _, bad := range []any{
		map[string]any{"rate": math.NaN()},
		map[string]any{"ch": make(chan int)},
		func() {},
	} {
		_, want := NewKey("t").Options("attack", bad).Int("seed", 1).Key()
		_, got := NewKey("t").RenderedOptions("attack", RenderOptions(bad)).Int("seed", 1).Key()
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Errorf("%T: RenderedOptions error %v, Options error %v", bad, got, want)
		}
	}
	if _, err := NewKey("t").RenderedOptions("attack", Rendered{}).Key(); err == nil {
		t.Error("the zero Rendered must poison the builder")
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

// referenceCanonicalJSON is the canonicalizer CanonicalJSON replaced,
// kept as the reference its bytes are checked against: marshal the
// whole value with encoding/json, decode the text with UseNumber, and
// write the decoded tree.
func referenceCanonicalJSON(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.UseNumber()
	var tree any
	if err := dec.Decode(&tree); err != nil {
		return nil, err
	}
	var sb strings.Builder
	if err := referenceWrite(&sb, tree); err != nil {
		return nil, err
	}
	return []byte(sb.String()), nil
}

// referenceWrite writes one decoded subtree for referenceCanonicalJSON.
func referenceWrite(sb *strings.Builder, v any) error {
	switch t := v.(type) {
	case nil:
		sb.WriteString("null")
	case bool:
		if t {
			sb.WriteString("true")
		} else {
			sb.WriteString("false")
		}
	case string:
		enc, err := json.Marshal(t)
		if err != nil {
			return err
		}
		sb.Write(enc)
	case json.Number:
		sb.WriteString(referenceNumber(t))
	case []any:
		sb.WriteByte('[')
		for i, e := range t {
			if i > 0 {
				sb.WriteByte(',')
			}
			if err := referenceWrite(sb, e); err != nil {
				return err
			}
		}
		sb.WriteByte(']')
	case map[string]any:
		keys := make([]string, 0, len(t))
		rendered := make(map[string]string, len(t))
		for k, e := range t {
			var eb strings.Builder
			if err := referenceWrite(&eb, e); err != nil {
				return err
			}
			switch s := eb.String(); s {
			case "null", "false", "0", `""`, "[]", "{}":
			default:
				keys = append(keys, k)
				rendered[k] = s
			}
		}
		sort.Strings(keys)
		sb.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				sb.WriteByte(',')
			}
			enc, err := json.Marshal(k)
			if err != nil {
				return err
			}
			sb.Write(enc)
			sb.WriteByte(':')
			sb.WriteString(rendered[k])
		}
		sb.WriteByte('}')
	default:
		return fmt.Errorf("cache: cannot canonicalize %T", v)
	}
	return nil
}

// referenceNumber is the number normalization referenceCanonicalJSON
// applies.
func referenceNumber(n json.Number) string {
	s := n.String()
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return strconv.FormatInt(i, 10)
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return s
	}
	if f == float64(int64(f)) && f >= -1e15 && f <= 1e15 {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}
