package cache

import (
	"bytes"
	"encoding/json"
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

// FuzzCacheEntryDecode throws arbitrary bytes at the entry decoder:
// it must never panic and never authenticate anything that was not
// produced by this cache's seal (a forged acceptance would let tampered
// results through).
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
	// Seed with a genuine entry file, plus headers of both versions.
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
	f.Add([]byte("RILC\x02"))
	f.Add(append([]byte("RILC\x02"), make([]byte, nonceLen+tagLen)...))
	f.Add(append([]byte("RILC\x01"), make([]byte, 16+16)...))
	f.Add([]byte("XXXX\x02 something else entirely"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		// The only acceptable authentication is the genuine entry
		// itself; any other bytes the decoder accepts are a forgery
		// that would let tampered results through.
		if _, ok := c.decode(k, raw); ok && !bytes.Equal(raw, genuine) {
			t.Fatalf("authenticated non-genuine entry %x", raw)
		}
	})
}
