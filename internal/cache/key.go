package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/netlist"
)

// SchemaVersion is the cache schema version. It is mixed into every
// key, so any change to the entry format, the canonicalization rules
// or the meaning of cached payloads invalidates all existing entries
// by construction — stale entries become misses, never wrong answers.
//
// Version history:
//
//	1: payload is the caller's bytes verbatim
//	2: payload carries the original computation's wall-clock seconds
//	   (8-byte prefix, see PutTimed/GetTimed) so cache hits keep their
//	   runtime accounting instead of reporting 0s
const SchemaVersion = 2

// Key is a content-addressed cache key: the canonical SHA-256 hash of
// everything that determines a cached result. The zero Key is invalid
// and never matches an entry; jobs carrying it bypass the cache.
type Key struct {
	sum   [sha256.Size]byte
	valid bool
}

// Valid reports whether the key was produced by a Builder. The zero
// Key is not valid.
func (k Key) Valid() bool { return k.valid }

// String returns the key as lowercase hex ("" for the zero Key).
func (k Key) String() string {
	if !k.valid {
		return ""
	}
	return hex.EncodeToString(k.sum[:])
}

// Builder accumulates the input closure of one cacheable computation
// into a Key. Every section is length-prefixed and labeled, so no two
// distinct input sequences collide by concatenation ambiguity, and
// the schema version and a kind label are always mixed in first.
// Errors are sticky: the first failure poisons the Builder and Key
// reports it.
type Builder struct {
	h   io.Writer
	sum func() [sha256.Size]byte
	err error
}

// NewKey starts a Builder for one kind of computation ("sat-attack",
// "table-cell", "lock", ...). Results of different kinds never share
// entries even if the rest of their inputs agree.
func NewKey(kind string) *Builder {
	h := sha256.New()
	b := &Builder{h: h, sum: func() (s [sha256.Size]byte) {
		h.Sum(s[:0])
		return s
	}}
	b.section("rilcache", []byte{SchemaVersion})
	b.section("kind", []byte(kind))
	return b
}

// section writes one length-prefixed, labeled chunk into the hash.
func (b *Builder) section(label string, payload []byte) {
	if b.err != nil {
		return
	}
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(label)))
	binary.BigEndian.PutUint32(hdr[4:8], uint32(len(payload)))
	for _, p := range [][]byte{hdr[:], []byte(label), payload} {
		if _, err := b.h.Write(p); err != nil {
			b.err = err
			return
		}
	}
}

// Digest is one netlist's canonical digest, as NetlistSum computes it.
// A caller that keys many computations on one circuit digests it once
// and mixes the Digest into each key with Builder.NetlistSum. A Digest
// whose netlist could not be serialized carries the reason; mixing it,
// or the zero Digest, into a Builder poisons the Builder.
type Digest struct {
	sum [sha256.Size]byte
	err error
}

// NetlistSum returns the digest Builder.Netlist mixes in: the SHA-256
// of the netlist's WriteBench text.
func NetlistSum(nl *netlist.Netlist) Digest {
	if nl == nil {
		return Digest{err: errors.New("nil netlist")}
	}
	h := sha256.New()
	if err := nl.WriteBench(h); err != nil {
		return Digest{err: err}
	}
	var d Digest
	h.Sum(d.sum[:0])
	return d
}

// Netlist mixes in a netlist's WriteBench text, by its digest. That
// text holds the netlist's name, its inputs and outputs in declaration
// order and its gates in TopoOrder's order, which follows gate index
// order; every name is written verbatim. Two .bench sources that
// differ only in comments, blank lines or spacing key alike. Another
// netlist name, a renamed gate or reordered gate lines can key
// differently: that costs cache hits, never a wrong answer.
func (b *Builder) Netlist(label string, nl *netlist.Netlist) *Builder {
	return b.NetlistSum(label, NetlistSum(nl))
}

// NetlistSum mixes in a netlist digest computed earlier by NetlistSum;
// the key is the one Netlist gives for the same netlist.
func (b *Builder) NetlistSum(label string, d Digest) *Builder {
	switch {
	case b.err != nil:
	case d.err != nil:
		b.err = fmt.Errorf("cache: %s: %w", label, d.err)
	case d.sum == [sha256.Size]byte{}:
		b.err = fmt.Errorf("cache: %s: zero netlist digest", label)
	default:
		b.section("netlist:"+label, d.sum[:])
	}
	return b
}

// Options mixes in an options struct (or map) in canonical JSON form:
// fields at their zero value are dropped and object keys are sorted,
// so two option sets that differ only in field order or explicitly
// spelled defaults produce the same key, while any semantic
// difference changes it.
func (b *Builder) Options(label string, v any) *Builder {
	if b.err != nil {
		return b
	}
	raw, err := CanonicalJSON(v)
	if err != nil {
		b.err = fmt.Errorf("cache: %s: %w", label, err)
		return b
	}
	b.section("options:"+label, raw)
	return b
}

// Int mixes in one integer input (a seed, a width, ...) as its
// decimal text.
func (b *Builder) Int(label string, v int64) *Builder {
	b.section("int:"+label, []byte(strconv.FormatInt(v, 10)))
	return b
}

// Bytes mixes in one opaque byte input (file contents, a key file).
func (b *Builder) Bytes(label string, p []byte) *Builder {
	b.section("bytes:"+label, p)
	return b
}

// Key finalizes the builder.
func (b *Builder) Key() (Key, error) {
	if b.err != nil {
		return Key{}, b.err
	}
	return Key{sum: b.sum(), valid: true}, nil
}

// CanonicalJSON renders any JSON-marshalable value in canonical form:
// object keys sorted, insignificant whitespace removed, numbers
// normalized (1.0 == 1), and object members at their zero value
// (null, false, 0, "", empty array, empty object) dropped entirely.
// Dropping zero members is what makes keys stable across option
// evolution: an options struct that grows a new field hashes
// identically until someone sets the field, and a struct spelling a
// default explicitly hashes like one that omits it. Array elements
// are never dropped — element position is semantic.
func CanonicalJSON(v any) ([]byte, error) {
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
	if err := writeCanonical(&sb, tree); err != nil {
		return nil, err
	}
	return []byte(sb.String()), nil
}

// canonicalValue renders one subtree, returning the canonical text.
func canonicalValue(v any) (string, error) {
	var sb strings.Builder
	if err := writeCanonical(&sb, v); err != nil {
		return "", err
	}
	return sb.String(), nil
}

// isCanonicalZero reports whether a canonical rendering is a JSON
// zero value whose presence carries no information in an object.
func isCanonicalZero(s string) bool {
	switch s {
	case "null", "false", "0", `""`, "[]", "{}":
		return true
	}
	return false
}

func writeCanonical(sb *strings.Builder, v any) error {
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
		sb.WriteString(canonicalNumber(t))
	case []any:
		sb.WriteByte('[')
		for i, e := range t {
			if i > 0 {
				sb.WriteByte(',')
			}
			if err := writeCanonical(sb, e); err != nil {
				return err
			}
		}
		sb.WriteByte(']')
	case map[string]any:
		keys := make([]string, 0, len(t))
		rendered := make(map[string]string, len(t))
		for k, e := range t {
			s, err := canonicalValue(e)
			if err != nil {
				return err
			}
			if isCanonicalZero(s) {
				continue
			}
			keys = append(keys, k)
			rendered[k] = s
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

// canonicalNumber normalizes a JSON number: integers (including
// 1.0-style spellings of integral values) render in minimal decimal
// form, everything else in Go's shortest float form. Values too large
// for either parse fall back to the literal text.
func canonicalNumber(n json.Number) string {
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
