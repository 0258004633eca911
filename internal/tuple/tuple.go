// Package tuple implements the tuple model of the LINDA coordination
// language as used by policy-enforced augmented tuple spaces (PEATS).
//
// A tuple is a finite sequence of typed fields. A tuple in which every
// field holds a defined value is an entry; a tuple with one or more
// undefined fields (wildcards or formal fields) is a template. An entry e
// and a template t match, written m(e, t), iff they have the same arity
// and every defined field of t equals the corresponding field of e.
// Formal fields (written ?v in the paper) additionally bind the matched
// value to a variable name, which callers retrieve through Bindings.
package tuple

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
)

// Kind identifies the type of a defined field value.
type Kind uint8

// Field value kinds. KindNone is reserved for undefined (wildcard or
// formal) fields, which carry no value.
const (
	KindNone Kind = iota
	KindInt
	KindString
	KindBool
	KindBytes
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindInt:
		return "int"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	case KindBytes:
		return "bytes"
	default:
		return "kind(" + strconv.Itoa(int(k)) + ")"
	}
}

// fieldMode distinguishes defined values from the two undefined forms.
type fieldMode uint8

const (
	modeValue fieldMode = iota + 1
	modeWildcard
	modeFormal
)

// Field is a single position of a tuple: a defined value, the wildcard
// "*" (any value), or a formal field "?name" that binds on match.
// The zero Field is invalid; construct fields with Int, Str, Bool,
// Bytes, Any, or Formal.
type Field struct {
	mode fieldMode
	kind Kind
	i    int64
	s    string // string value, or formal-field variable name
	b    []byte
}

// Int returns a defined int64 field.
func Int(v int64) Field { return Field{mode: modeValue, kind: KindInt, i: v} }

// Str returns a defined string field.
func Str(v string) Field { return Field{mode: modeValue, kind: KindString, s: v} }

// Bool returns a defined boolean field.
func Bool(v bool) Field {
	var i int64
	if v {
		i = 1
	}
	return Field{mode: modeValue, kind: KindBool, i: i}
}

// Bytes returns a defined byte-slice field. The slice is copied so later
// mutation by the caller cannot alter tuples already stored in a space.
func Bytes(v []byte) Field {
	cp := make([]byte, len(v))
	copy(cp, v)
	return Field{mode: modeValue, kind: KindBytes, b: cp}
}

// Any returns the wildcard field "*", matching any defined value.
func Any() Field { return Field{mode: modeWildcard} }

// Formal returns the formal field "?name". It matches any defined value
// and binds the matched value to name in the match Bindings.
func Formal(name string) Field { return Field{mode: modeFormal, s: name} }

// IsValue reports whether the field holds a defined value.
func (f Field) IsValue() bool { return f.mode == modeValue }

// IsWildcard reports whether the field is the wildcard "*".
func (f Field) IsWildcard() bool { return f.mode == modeWildcard }

// IsFormal reports whether the field is a formal field "?name".
func (f Field) IsFormal() bool { return f.mode == modeFormal }

// IsZero reports whether the field is the invalid zero Field.
func (f Field) IsZero() bool { return f.mode == 0 }

// Kind returns the kind of a defined field, or KindNone for wildcard and
// formal fields.
func (f Field) Kind() Kind {
	if f.mode != modeValue {
		return KindNone
	}
	return f.kind
}

// Name returns the variable name of a formal field, or "" otherwise.
func (f Field) Name() string {
	if f.mode != modeFormal {
		return ""
	}
	return f.s
}

// IntValue returns the int64 value of a KindInt field.
// The second result is false if the field is not a defined int.
func (f Field) IntValue() (int64, bool) {
	if f.mode != modeValue || f.kind != KindInt {
		return 0, false
	}
	return f.i, true
}

// StrValue returns the string value of a KindString field.
func (f Field) StrValue() (string, bool) {
	if f.mode != modeValue || f.kind != KindString {
		return "", false
	}
	return f.s, true
}

// BoolValue returns the value of a KindBool field.
func (f Field) BoolValue() (bool, bool) {
	if f.mode != modeValue || f.kind != KindBool {
		return false, false
	}
	return f.i != 0, true
}

// BytesValue returns a copy of the value of a KindBytes field.
func (f Field) BytesValue() ([]byte, bool) {
	if f.mode != modeValue || f.kind != KindBytes {
		return nil, false
	}
	cp := make([]byte, len(f.b))
	copy(cp, f.b)
	return cp, true
}

// Equal reports whether two fields are identical: same mode, and for
// defined values same kind and value; formal fields compare by name.
func (f Field) Equal(g Field) bool {
	if f.mode != g.mode {
		return false
	}
	switch f.mode {
	case modeWildcard:
		return true
	case modeFormal:
		return f.s == g.s
	case modeValue:
		if f.kind != g.kind {
			return false
		}
		switch f.kind {
		case KindInt, KindBool:
			return f.i == g.i
		case KindString:
			return f.s == g.s
		case KindBytes:
			return string(f.b) == string(g.b)
		}
	}
	return false
}

// String renders the field in the paper's notation: values verbatim,
// wildcards as "*", formal fields as "?name".
func (f Field) String() string {
	switch f.mode {
	case modeWildcard:
		return "*"
	case modeFormal:
		return "?" + f.s
	case modeValue:
		switch f.kind {
		case KindInt:
			return strconv.FormatInt(f.i, 10)
		case KindString:
			return strconv.Quote(f.s)
		case KindBool:
			return strconv.FormatBool(f.i != 0)
		case KindBytes:
			return fmt.Sprintf("0x%x", f.b)
		}
	}
	return "<invalid>"
}

// MatchKey returns a canonical key for a defined field value: two
// defined fields are Equal iff their keys are equal, so the key can
// index hash buckets without weakening match semantics. It returns
// ok=false for wildcard and formal fields, which have no value to key.
func (f Field) MatchKey() (string, bool) {
	if f.mode != modeValue {
		return "", false
	}
	switch f.kind {
	case KindInt, KindBool:
		var buf [9]byte
		buf[0] = byte(f.kind)
		binary.BigEndian.PutUint64(buf[1:], uint64(f.i))
		return string(buf[:]), true
	case KindString:
		return string([]byte{byte(f.kind)}) + f.s, true
	case KindBytes:
		return string([]byte{byte(f.kind)}) + string(f.b), true
	}
	return "", false
}

// BitSize returns the number of bits of payload the field occupies,
// used by the memory-accounting experiments (E1). Undefined fields
// occupy zero payload bits.
func (f Field) BitSize() int {
	if f.mode != modeValue {
		return 0
	}
	switch f.kind {
	case KindBool:
		return 1
	case KindInt:
		// Minimal two's-complement width of the value, at least 1 bit.
		v := f.i
		if v < 0 {
			v = ^v
		}
		bits := 1
		for v > 0 {
			bits++
			v >>= 1
		}
		return bits
	case KindString:
		return 8 * len(f.s)
	case KindBytes:
		return 8 * len(f.b)
	}
	return 0
}

// Tuple is an immutable sequence of fields; it represents either an
// entry or a template depending on whether all fields are defined.
type Tuple struct {
	fields []Field
}

// T constructs a tuple from the given fields.
func T(fields ...Field) Tuple {
	cp := make([]Field, len(fields))
	copy(cp, fields)
	return Tuple{fields: cp}
}

// Arity returns the number of fields.
func (t Tuple) Arity() int { return len(t.fields) }

// Field returns the i-th field. It returns the zero Field if i is out
// of range, so policy predicates can probe positions safely.
func (t Tuple) Field(i int) Field {
	if i < 0 || i >= len(t.fields) {
		return Field{}
	}
	return t.fields[i]
}

// Fields returns a copy of the field sequence.
func (t Tuple) Fields() []Field {
	cp := make([]Field, len(t.fields))
	copy(cp, t.fields)
	return cp
}

// IsZero reports whether the tuple is the zero Tuple (no fields).
func (t Tuple) IsZero() bool { return len(t.fields) == 0 }

// IsEntry reports whether every field is a defined value.
func (t Tuple) IsEntry() bool {
	for _, f := range t.fields {
		if !f.IsValue() {
			return false
		}
	}
	return len(t.fields) > 0
}

// IsTemplate reports whether the tuple has at least one undefined field.
func (t Tuple) IsTemplate() bool { return len(t.fields) > 0 && !t.IsEntry() }

// Equal reports field-by-field equality.
func (t Tuple) Equal(u Tuple) bool {
	if len(t.fields) != len(u.fields) {
		return false
	}
	for i := range t.fields {
		if !t.fields[i].Equal(u.fields[i]) {
			return false
		}
	}
	return true
}

// String renders the tuple as ⟨f1, f2, ...⟩.
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteString("<")
	for i, f := range t.fields {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(f.String())
	}
	b.WriteString(">")
	return b.String()
}

// BitSize returns the total payload bits of the tuple's defined fields.
func (t Tuple) BitSize() int {
	total := 0
	for _, f := range t.fields {
		total += f.BitSize()
	}
	return total
}

// Bindings maps formal-field variable names to the values they matched.
type Bindings map[string]Field

// Match implements the matching predicate m(e, t) of the paper: the
// entry e matches template t iff they have the same arity and every
// defined field of t equals the corresponding field of e. Wildcards
// match any value; formal fields match any value and bind it.
//
// The returned Bindings holds one entry per formal field of t (nil when
// t has none). Match returns false if e is not an entry.
func Match(e, t Tuple) (Bindings, bool) {
	if !Matches(e, t) {
		return nil, false
	}
	var binds Bindings
	for i := range t.fields {
		if tf := &t.fields[i]; tf.mode == modeFormal {
			if binds == nil {
				binds = make(Bindings)
			}
			binds[tf.s] = e.fields[i]
		}
	}
	return binds, true
}

// Matches reports whether entry e matches template t, discarding
// bindings. It is the store engines' inner loop: one pass that checks
// each position of e is a value and agrees with t, so a candidate that
// differs on an early field is rejected after touching that field only,
// and nothing is allocated.
func Matches(e, t Tuple) bool {
	if len(e.fields) == 0 || len(e.fields) != len(t.fields) {
		return false
	}
	for i := range t.fields {
		ef, tf := &e.fields[i], &t.fields[i]
		if ef.mode != modeValue {
			return false
		}
		switch tf.mode {
		case modeWildcard, modeFormal:
		default:
			if !tf.Equal(*ef) {
				return false
			}
		}
	}
	return true
}
