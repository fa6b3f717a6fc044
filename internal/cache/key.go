package cache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/netlist"
)

// SchemaVersion is the cache schema version. It is mixed into every
// key, so any change to key derivation (the canonicalization rules) or
// to the meaning of cached payloads invalidates all existing entries
// by construction — stale entries become misses, never wrong answers.
// The entry container around a payload is versioned separately, by
// the version byte in each entry's header: changing the container
// bumps that byte and leaves every key as it was.
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
	h       hash.Hash
	label   []byte // scratch: one section's header and label
	payload []byte // scratch: the kind, the schema version or an Int's text
	err     error
}

// NewKey starts a Builder for one kind of computation ("sat-attack",
// "table-cell", "lock", ...). Results of different kinds never share
// entries even if the rest of their inputs agree.
func NewKey(kind string) *Builder {
	b := &Builder{h: sha256.New(), label: make([]byte, 0, 64), payload: make([]byte, 0, 64)}
	b.payload = append(b.payload, SchemaVersion)
	b.section("rilcache", "", b.payload)
	b.payload = append(b.payload[:0], kind...)
	b.section("kind", "", b.payload)
	return b
}

// section writes one length-prefixed chunk labeled prefix+name into
// the hash. Writes to a hash.Hash never fail.
func (b *Builder) section(prefix, name string, payload []byte) {
	if b.err != nil {
		return
	}
	b.label = binary.BigEndian.AppendUint32(b.label[:0], uint32(len(prefix)+len(name)))
	b.label = binary.BigEndian.AppendUint32(b.label, uint32(len(payload)))
	b.label = append(append(b.label, prefix...), name...)
	b.h.Write(b.label)
	b.h.Write(payload)
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
		b.section("netlist:", label, d.sum[:])
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
	return b.RenderedOptions(label, RenderOptions(v))
}

// Rendered is one option set's canonical JSON, as Options renders it.
// A caller that mixes one option set into many keys renders it once
// and mixes the Rendered value into each key with
// Builder.RenderedOptions. A Rendered value whose option set
// CanonicalJSON rejects carries the reason; mixing it, or the zero
// Rendered, into a Builder poisons the Builder.
type Rendered struct {
	raw []byte
	err error
}

// RenderOptions renders an option set for Builder.RenderedOptions.
func RenderOptions(v any) Rendered {
	raw, err := CanonicalJSON(v)
	return Rendered{raw: raw, err: err}
}

// RenderedOptions mixes in an option set rendered earlier by
// RenderOptions; the key is the one Options gives for the same value.
func (b *Builder) RenderedOptions(label string, r Rendered) *Builder {
	switch {
	case b.err != nil:
	case r.err != nil:
		b.err = fmt.Errorf("cache: %s: %w", label, r.err)
	case r.raw == nil:
		b.err = fmt.Errorf("cache: %s: options not rendered", label)
	default:
		b.section("options:", label, r.raw)
	}
	return b
}

// Int mixes in one integer input (a seed, a width, ...) as its
// decimal text.
func (b *Builder) Int(label string, v int64) *Builder {
	b.payload = strconv.AppendInt(b.payload[:0], v, 10)
	b.section("int:", label, b.payload)
	return b
}

// Bytes mixes in one opaque byte input (file contents, a key file).
func (b *Builder) Bytes(label string, p []byte) *Builder {
	b.section("bytes:", label, p)
	return b
}

// Key finalizes the builder.
func (b *Builder) Key() (Key, error) {
	if b.err != nil {
		return Key{}, b.err
	}
	k := Key{valid: true}
	b.h.Sum(k.sum[:0])
	return k, nil
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
//
// The form is defined as that of the value marshaled by encoding/json,
// decoded with UseNumber and rewritten by these rules. The values that
// decoding yields — map[string]any, []any, strings, bools, nil and
// json.Number — and Go's predeclared integer and float types are
// written directly; any other value (a struct, a typed map or slice, a
// pointer) goes through encoding/json once, at its own subtree.
func CanonicalJSON(v any) ([]byte, error) {
	w := canonicalWriter{buf: make([]byte, 0, 128)}
	if err := w.value(v); err != nil {
		return nil, err
	}
	return w.buf, nil
}

// maxDirectDepth bounds how deeply nested maps and slices are written
// directly; a deeper subtree goes through encoding/json, which reports
// a cycle as an error instead of recursing without end.
const maxDirectDepth = 1000

// canonicalWriter appends canonical JSON to buf.
type canonicalWriter struct {
	buf   []byte
	depth int
}

// value writes v's canonical form.
func (w *canonicalWriter) value(v any) error {
	switch t := v.(type) {
	case nil:
		w.buf = append(w.buf, "null"...)
	case bool:
		w.buf = strconv.AppendBool(w.buf, t)
	case string:
		w.string(t)
	case json.Number:
		// Marshaling checks the literal and spells "" as 0.
		raw, err := json.Marshal(t)
		if err != nil {
			return err
		}
		w.buf = append(w.buf, canonicalNumber(json.Number(raw))...)
	case int, int8, int16, int32, int64:
		w.buf = strconv.AppendInt(w.buf, reflect.ValueOf(t).Int(), 10)
	case uint, uint8, uint16, uint32, uint64, uintptr:
		w.buf = append(w.buf, canonicalNumber(json.Number(strconv.FormatUint(reflect.ValueOf(t).Uint(), 10)))...)
	case float32:
		return w.float(v, float64(t), 32)
	case float64:
		return w.float(v, t, 64)
	case []any:
		if t == nil || w.depth >= maxDirectDepth {
			return w.marshaled(v)
		}
		w.depth++
		w.buf = append(w.buf, '[')
		for i, e := range t {
			if i > 0 {
				w.buf = append(w.buf, ',')
			}
			if err := w.value(e); err != nil {
				return err
			}
		}
		w.buf = append(w.buf, ']')
		w.depth--
	case map[string]any:
		if t == nil || w.depth >= maxDirectDepth {
			return w.marshaled(v)
		}
		w.depth++
		if err := w.object(t); err != nil {
			return err
		}
		w.depth--
	default:
		return w.marshaled(v)
	}
	return nil
}

// object writes a map's members in key order, leaving out every member
// whose value is a JSON zero.
func (w *canonicalWriter) object(m map[string]any) error {
	var small [8]string // the keys of a small map stay on the stack
	keys := small[:0]
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !utf8.ValidString(k) {
			return w.collapsed(m, keys)
		}
	}
	w.buf = append(w.buf, '{')
	n := 0
	for _, k := range keys {
		mark := len(w.buf)
		if n > 0 {
			w.buf = append(w.buf, ',')
		}
		w.string(k)
		w.buf = append(w.buf, ':')
		val := len(w.buf)
		if err := w.value(m[k]); err != nil {
			return err
		}
		if isCanonicalZero(w.buf[val:]) {
			w.buf = w.buf[:mark]
			continue
		}
		n++
	}
	w.buf = append(w.buf, '}')
	return nil
}

// collapsed writes a map with a key that is not valid UTF-8 as a JSON
// round trip leaves it: each invalid byte of a key becomes U+FFFD, and
// of the keys that then coincide, the last in byte order keeps its
// value. A value dropped that way must still be marshalable, since
// encoding/json fails on the whole map if it is not.
func (w *canonicalWriter) collapsed(m map[string]any, sorted []string) error {
	fixed := make(map[string]any, len(m))
	for _, k := range sorted {
		var probe canonicalWriter
		if err := probe.value(m[k]); err != nil {
			return err
		}
		fixed[validUTF8(k)] = m[k]
	}
	return w.object(fixed)
}

// string writes s as encoding/json does after a round trip: each byte
// that is not valid UTF-8 becomes U+FFFD, and the text is escaped as
// json.Marshal escapes it, HTML characters included.
func (w *canonicalWriter) string(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			enc, _ := json.Marshal(validUTF8(s)) // a string always marshals
			w.buf = append(w.buf, enc...)
			return
		}
	}
	w.buf = append(w.buf, '"')
	w.buf = append(w.buf, s...)
	w.buf = append(w.buf, '"')
}

// float writes a finite float as encoding/json spells it, normalized
// like any other number. NaN and the infinities fail, as in
// json.Marshal.
func (w *canonicalWriter) float(v any, f float64, bits int) error {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return w.marshaled(v)
	}
	w.buf = append(w.buf, canonicalNumber(json.Number(strconv.FormatFloat(f, 'f', -1, bits)))...)
	return nil
}

// marshaled writes any other value through encoding/json: it marshals
// the value, decodes the text with UseNumber and writes the decoded
// tree. The tree is acyclic and its nesting restarts at zero, so a
// deep tree goes round this path once per maxDirectDepth levels.
func (w *canonicalWriter) marshaled(v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var tree any
	if err := dec.Decode(&tree); err != nil {
		return err
	}
	depth := w.depth
	w.depth = 0
	err = w.value(tree)
	w.depth = depth
	return err
}

// validUTF8 replaces each byte of s that is not valid UTF-8 with
// U+FFFD, byte by byte as encoding/json does (strings.ToValidUTF8
// replaces a run of them with one).
func validUTF8(s string) string {
	if utf8.ValidString(s) {
		return s
	}
	var sb strings.Builder
	for _, r := range s { // an invalid byte ranges as one U+FFFD
		sb.WriteRune(r)
	}
	return sb.String()
}

// isCanonicalZero reports whether a canonical rendering is a JSON
// zero value whose presence carries no information in an object.
func isCanonicalZero(b []byte) bool {
	switch string(b) {
	case "null", "false", "0", `""`, "[]", "{}":
		return true
	}
	return false
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
