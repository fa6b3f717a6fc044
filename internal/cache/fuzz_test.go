package cache

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"math"
	"os"
	"testing"
)

// FuzzCacheKeyCanonical feeds arbitrary option sets (as JSON) through
// the canonicalizer and checks the two key-derivation invariants:
//
//   - insensitivity: re-serializing the decoded value (randomized Go
//     map iteration order, whitespace changes) and spelling zero-valued
//     members explicitly never changes the canonical form;
//   - sensitivity: flipping one non-zero member's value always does.
func FuzzCacheKeyCanonical(f *testing.F) {
	f.Add([]byte(`{"blocks":3,"size":"8x8x8","timeout":2000000000}`))
	f.Add([]byte(`{"a":1,"b":{"c":[1,2,3],"d":""},"e":false}`))
	f.Add([]byte(`{"x":1.0,"y":0,"z":null}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"nested":{"deep":{"deeper":7}}}`))
	f.Add([]byte(`{"s":"unicode snowman ☃"}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		var v any
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Skip()
		}
		canon, err := CanonicalJSON(v)
		if err != nil {
			// Non-canonicalizable values (e.g. NaN can't appear from
			// Unmarshal) — nothing further to check.
			t.Skip()
		}
		// Idempotence: canonical output re-canonicalizes to itself.
		var v2 any
		if err := json.Unmarshal(canon, &v2); err != nil {
			t.Fatalf("canonical form is not valid JSON: %q (%v)", canon, err)
		}
		canon2, err := CanonicalJSON(v2)
		if err != nil {
			t.Fatalf("re-canonicalize: %v", err)
		}
		if !bytes.Equal(canon, canon2) {
			t.Fatalf("not idempotent: %q -> %q", canon, canon2)
		}
		// Field order / explicit defaults: adding zero members to any
		// object must not change the canonical form; Go's randomized
		// map order covers permutation on the re-decode above.
		if m, ok := v2.(map[string]any); ok {
			withDefaults := map[string]any{
				"fuzz_default_int": 0, "fuzz_default_str": "",
				"fuzz_default_bool": false, "fuzz_default_null": nil,
			}
			for k, e := range m {
				withDefaults[k] = e
			}
			canon3, err := CanonicalJSON(withDefaults)
			if err != nil {
				t.Fatalf("canonicalize with defaults: %v", err)
			}
			if !bytes.Equal(canon, canon3) {
				t.Fatalf("explicit defaults changed form: %q -> %q", canon, canon3)
			}
			// Sensitivity: changing one non-zero member must change the
			// derived key.
			for k := range m {
				mutated := map[string]any{}
				for kk, e := range m {
					mutated[kk] = e
				}
				mutated[k] = "fuzz-mutated-value-7f3a"
				mc, err := CanonicalJSON(mutated)
				if err != nil {
					t.Fatalf("canonicalize mutation: %v", err)
				}
				if bytes.Equal(mc, canon) {
					// Only legitimate if the member already held the
					// sentinel value.
					if s, isStr := m[k].(string); !isStr || s != "fuzz-mutated-value-7f3a" {
						t.Fatalf("mutating %q did not change canonical form %q", k, canon)
					}
				}
				break // one mutation per input keeps the fuzzer fast
			}
		}
		// The canonical form feeds the key hash; equal forms must give
		// equal keys and the builder must never error on valid JSON.
		k1, err := NewKey("fuzz").Options("o", v).Key()
		if err != nil {
			t.Fatalf("builder: %v", err)
		}
		k2, err := NewKey("fuzz").Options("o", v2).Key()
		if err != nil {
			t.Fatalf("builder: %v", err)
		}
		if k1 != k2 {
			t.Fatalf("equal canonical forms derived different keys")
		}
	})
}

// fuzzBase is embedded in fuzzOpts: encoding/json promotes its fields.
type fuzzBase struct {
	Inner string `json:"inner,omitempty"`
	Depth int
}

// fuzzOpts is an options struct of the kinds key derivation meets:
// tags, omitempty, an embedded struct, typed maps and slices, a
// pointer, an interface field and fields encoding/json skips.
type fuzzOpts struct {
	fuzzBase
	Name    string            `json:"name"`
	Count   int64             `json:"count,omitempty"`
	Ratio   float64           `json:"ratio"`
	Small   float32           `json:"small,omitempty"`
	Flags   []bool            `json:"flags"`
	Tags    map[string]string `json:"tags,omitempty"`
	Any     any               `json:"any"`
	Ptr     *uint64           `json:"ptr"`
	Skip    string            `json:"-"`
	private int
}

// FuzzCanonicalJSONReference checks CanonicalJSON against the
// marshal, decode and rewrite canonicalizer it replaced, byte for
// byte: on the tree raw decodes to (with and without UseNumber), and
// on Go-typed values built from the other arguments — every integer
// kind, both float kinds, json.Number, strings with HTML characters or
// invalid UTF-8, maps whose keys collapse when their invalid bytes
// become U+FFFD, structs, and typed maps and slices. Both must fail,
// or both give the same bytes.
func FuzzCanonicalJSONReference(f *testing.F) {
	f.Add([]byte(`{"blocks":3,"size":"8x8","timeout":2000000000}`), "8x8", "blocks", int64(3), uint64(7), 1.0)
	f.Add([]byte(`[1.0,-0,1e15,1e21,1e300,1e-7,123456789012345678901234]`), "<a & b>", "\xff", int64(-1), uint64(math.MaxUint64), math.Copysign(0, -1))
	f.Add([]byte(`{"\ufffd":1,"a\u003cb":{"x":0,"y":[]}}`), "bad\xff\xfeutf8", "k\xfe", int64(math.MinInt64), uint64(1<<63), 1e15)
	f.Add([]byte(`{"a":{"b":{}},"c":[{}],"d":null}`), "", "", int64(0), uint64(0), 1e21)
	f.Add([]byte(`"\u2028\ud800"`), "☃\u2028\x7f", "\xef\xbf\xbd", int64(math.MaxInt64), uint64(1<<53+1), 1e300)
	f.Add([]byte(`{"n":1e400}`), "1e5", "\x80", int64(1<<40), uint64(1<<63-1), math.Inf(1))
	f.Add([]byte(`[]`), "-0.0", "\t", int64(42), uint64(255), math.NaN())
	f.Add([]byte(`{}`), "0x10", "", int64(-128), uint64(65536), 4611686018427387904.0)
	f.Fuzz(func(t *testing.T, raw []byte, s, key string, i int64, u uint64, x float64) {
		vals := []any{
			s, json.Number(s), i, u, x, float32(x),
			int(i), int8(i), int16(i), int32(i), uint(u), uint8(u), uint16(u), uint32(u), uintptr(u),
			[]any{s, i, u, x, nil, false, json.Number(s), []any{}, map[string]any{}, []any(nil), map[string]any(nil)},
			// Keys that collapse into one after a round trip: the last
			// in byte order keeps its value, a zero one drops the member.
			map[string]any{key: i, key + "\xff": x, key + "\xfe": s, key + "\xef\xbf\xbd": u, "z": nil},
			map[string]any{key + "\xfe": x, key + "\xff": 0, s: map[string]any{key: s, "<&>": []any{key}}},
			fuzzOpts{fuzzBase: fuzzBase{Inner: s, Depth: int(i)}, Name: key, Count: i, Ratio: x, Small: float32(x),
				Flags: []bool{i > 0, false}, Tags: map[string]string{key: s, s: key}, Any: []any{u, s}, Ptr: &u, Skip: s, private: 1},
			&fuzzOpts{Name: s, Any: map[string]any{key: x}},
			(*fuzzOpts)(nil),
			map[string]int{s: int(i), key: 0}, map[string][]string{key: {s}, s: nil}, []string{s, key},
			[]int64{i, 0}, map[int64]string{i: s, 0: key}, [2]any{s, u}, []byte(s), map[string]uint64{key: u},
			map[string]any{"opts": fuzzOpts{Name: s}, "list": []any{map[string]any{key: x}, []int{int(i)}}, "num": json.Number(key)},
		}
		for _, useNumber := range []bool{true, false} {
			dec := json.NewDecoder(bytes.NewReader(raw))
			if useNumber {
				dec.UseNumber()
			}
			var tree any
			if dec.Decode(&tree) == nil {
				vals = append(vals, tree, map[string]any{key: tree, s: fuzzOpts{Any: tree}})
			}
		}
		for _, v := range vals {
			want, wantErr := referenceCanonicalJSON(v)
			got, err := CanonicalJSON(v)
			if (err != nil) != (wantErr != nil) || !bytes.Equal(got, want) {
				t.Fatalf("CanonicalJSON(%#v) = %q, %v; the reference gives %q, %v", v, got, err, want, wantErr)
			}
		}
	})
}

// FuzzCacheEntryDecode throws arbitrary bytes at the entry decoder: it
// must never panic, and it accepts no bytes but the genuine entry.
func FuzzCacheEntryDecode(f *testing.F) {
	dir := f.TempDir()
	c, err := Open(dir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	k, err := NewKey("fuzz").Bytes("k", []byte("entry")).Key()
	if err != nil {
		f.Fatal(err)
	}
	// Seed with a genuine entry file, plus headers of versions 1, 2
	// and 3.
	if err := c.Put(k, []byte(`{"v":1}`)); err != nil {
		f.Fatal(err)
	}
	genuine, err := os.ReadFile(c.entryPath(k))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(genuine)
	f.Add([]byte{})
	f.Add([]byte("RILC"))
	f.Add(append([]byte("RILC\x01"), make([]byte, 16+16)...))
	f.Add(append([]byte("RILC\x02"), make([]byte, 12+16)...))
	f.Add([]byte("RILC\x03"))
	f.Add(append([]byte("RILC\x03"), make([]byte, sha256.Size+secondsPrefixLen)...))
	f.Add([]byte("XXXX\x03 something else entirely"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		// Any other bytes the decoder accepts would let a damaged or
		// foreign entry through.
		if _, ok := decode(k, raw); ok && !bytes.Equal(raw, genuine) {
			t.Fatalf("accepted non-genuine entry %x", raw)
		}
	})
}
