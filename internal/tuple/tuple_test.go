package tuple

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFieldConstructorsAndAccessors(t *testing.T) {
	tests := []struct {
		name string
		f    Field
		kind Kind
		str  string
	}{
		{"int", Int(42), KindInt, "42"},
		{"negative int", Int(-7), KindInt, "-7"},
		{"string", Str("hello"), KindString, `"hello"`},
		{"bool true", Bool(true), KindBool, "true"},
		{"bool false", Bool(false), KindBool, "false"},
		{"bytes", Bytes([]byte{0xab, 0xcd}), KindBytes, "0xabcd"},
		{"wildcard", Any(), KindNone, "*"},
		{"formal", Formal("v"), KindNone, "?v"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.f.Kind(); got != tt.kind {
				t.Errorf("Kind() = %v, want %v", got, tt.kind)
			}
			if got := tt.f.String(); got != tt.str {
				t.Errorf("String() = %q, want %q", got, tt.str)
			}
		})
	}
}

func TestFieldValueAccessors(t *testing.T) {
	if v, ok := Int(99).IntValue(); !ok || v != 99 {
		t.Errorf("IntValue = %d, %v", v, ok)
	}
	if _, ok := Str("x").IntValue(); ok {
		t.Error("IntValue on string field should fail")
	}
	if v, ok := Str("abc").StrValue(); !ok || v != "abc" {
		t.Errorf("StrValue = %q, %v", v, ok)
	}
	if v, ok := Bool(true).BoolValue(); !ok || !v {
		t.Errorf("BoolValue = %v, %v", v, ok)
	}
	if v, ok := Bytes([]byte{1, 2}).BytesValue(); !ok || len(v) != 2 {
		t.Errorf("BytesValue = %v, %v", v, ok)
	}
	if _, ok := Any().StrValue(); ok {
		t.Error("StrValue on wildcard should fail")
	}
	if Formal("x").Name() != "x" {
		t.Error("Name of formal field")
	}
	if Int(1).Name() != "" {
		t.Error("Name of value field should be empty")
	}
}

func TestBytesFieldIsCopied(t *testing.T) {
	src := []byte{1, 2, 3}
	f := Bytes(src)
	src[0] = 99
	got, _ := f.BytesValue()
	if got[0] != 1 {
		t.Error("Bytes field aliased caller's slice")
	}
	// Returned slice must also be a copy.
	got[1] = 77
	got2, _ := f.BytesValue()
	if got2[1] != 2 {
		t.Error("BytesValue returned aliased slice")
	}
}

func TestFieldEqual(t *testing.T) {
	tests := []struct {
		name string
		a, b Field
		want bool
	}{
		{"equal ints", Int(1), Int(1), true},
		{"unequal ints", Int(1), Int(2), false},
		{"equal strings", Str("a"), Str("a"), true},
		{"unequal strings", Str("a"), Str("b"), false},
		{"int vs string", Int(1), Str("1"), false},
		{"bool vs int", Bool(true), Int(1), false},
		{"wildcards", Any(), Any(), true},
		{"formals same name", Formal("x"), Formal("x"), true},
		{"formals diff name", Formal("x"), Formal("y"), false},
		{"wildcard vs formal", Any(), Formal("x"), false},
		{"value vs wildcard", Int(1), Any(), false},
		{"equal bytes", Bytes([]byte{1}), Bytes([]byte{1}), true},
		{"unequal bytes", Bytes([]byte{1}), Bytes([]byte{2}), false},
		{"zero fields", Field{}, Field{}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Equal(tt.b); got != tt.want {
				t.Errorf("Equal = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestTupleEntryTemplate(t *testing.T) {
	entry := T(Str("PROPOSE"), Int(3), Int(1))
	tmpl := T(Str("PROPOSE"), Int(3), Formal("v"))
	wild := T(Str("PROPOSE"), Any(), Any())

	if !entry.IsEntry() || entry.IsTemplate() {
		t.Error("entry classification")
	}
	if tmpl.IsEntry() || !tmpl.IsTemplate() {
		t.Error("template classification")
	}
	if wild.IsEntry() || !wild.IsTemplate() {
		t.Error("wildcard template classification")
	}
	var zero Tuple
	if zero.IsEntry() || zero.IsTemplate() || !zero.IsZero() {
		t.Error("zero tuple classification")
	}
	if entry.Arity() != 3 {
		t.Errorf("Arity = %d", entry.Arity())
	}
}

func TestTupleFieldOutOfRange(t *testing.T) {
	tu := T(Int(1))
	if !tu.Field(-1).IsZero() || !tu.Field(1).IsZero() {
		t.Error("out-of-range Field should be zero")
	}
	if tu.Field(0).IsZero() {
		t.Error("in-range Field should not be zero")
	}
}

func TestMatch(t *testing.T) {
	entry := T(Str("PROPOSE"), Int(3), Int(1))
	tests := []struct {
		name  string
		tmpl  Tuple
		want  bool
		binds map[string]Field
	}{
		{"exact", T(Str("PROPOSE"), Int(3), Int(1)), true, nil},
		{"formal binds", T(Str("PROPOSE"), Int(3), Formal("v")), true,
			map[string]Field{"v": Int(1)}},
		{"wildcards", T(Str("PROPOSE"), Any(), Any()), true, nil},
		{"two formals", T(Str("PROPOSE"), Formal("p"), Formal("v")), true,
			map[string]Field{"p": Int(3), "v": Int(1)}},
		{"wrong tag", T(Str("DECISION"), Int(3), Int(1)), false, nil},
		{"wrong arity", T(Str("PROPOSE"), Int(3)), false, nil},
		{"wrong value", T(Str("PROPOSE"), Int(3), Int(0)), false, nil},
		{"wrong type", T(Str("PROPOSE"), Int(3), Str("1")), false, nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			binds, ok := Match(entry, tt.tmpl)
			if ok != tt.want {
				t.Fatalf("Match = %v, want %v", ok, tt.want)
			}
			for name, want := range tt.binds {
				if got, ok := binds[name]; !ok || !got.Equal(want) {
					t.Errorf("binding %q = %v, want %v", name, got, want)
				}
			}
			if len(binds) != len(tt.binds) {
				t.Errorf("got %d bindings, want %d", len(binds), len(tt.binds))
			}
		})
	}
}

// TestMatchRejectsNonEntry pins "a non-entry never matches" for the
// single-pass matcher: the undefined candidate field may sit before or
// after the position where the template disagrees, or be the only
// reason to reject.
func TestMatchRejectsNonEntry(t *testing.T) {
	tests := []struct {
		name       string
		cand, tmpl Tuple
	}{
		{"template as entry", T(Str("X"), Any()), T(Str("X"), Any())},
		{"undefined before the mismatch", T(Any(), Int(1), Int(2)), T(Any(), Int(9), Int(2))},
		{"undefined after the mismatch", T(Str("X"), Int(1), Formal("v")), T(Str("X"), Int(9), Any())},
		{"undefined under a defined template field", T(Str("X"), Any()), T(Str("X"), Int(1))},
		{"undefined last, all else equal", T(Str("X"), Int(1), Any()), T(Str("X"), Int(1), Any())},
		{"undefined first, all else equal", T(Formal("x"), Int(1)), T(Formal("x"), Int(1))},
		{"zero field", T(Str("X"), Field{}), T(Str("X"), Any())},
		{"zero tuples", Tuple{}, Tuple{}},
	}
	for _, tt := range tests {
		if binds, ok := Match(tt.cand, tt.tmpl); ok || binds != nil {
			t.Errorf("%s: Match(%v, %v) = %v, %v; want no match", tt.name, tt.cand, tt.tmpl, binds, ok)
		}
		if Matches(tt.cand, tt.tmpl) {
			t.Errorf("%s: Matches(%v, %v) = true", tt.name, tt.cand, tt.tmpl)
		}
	}
	if Matches(T(Str("X"), Int(1)), T(Str("X"), Field{})) {
		t.Error("a zero template field matched a value")
	}
}

func TestTupleEqual(t *testing.T) {
	a := T(Str("SEQ"), Int(1), Bytes([]byte{9}))
	b := T(Str("SEQ"), Int(1), Bytes([]byte{9}))
	c := T(Str("SEQ"), Int(2), Bytes([]byte{9}))
	if !a.Equal(b) {
		t.Error("equal tuples")
	}
	if a.Equal(c) {
		t.Error("unequal tuples")
	}
	if a.Equal(T(Str("SEQ"), Int(1))) {
		t.Error("different arity")
	}
}

func TestTupleString(t *testing.T) {
	tu := T(Str("DECISION"), Formal("d"), Any(), Int(5))
	want := `<"DECISION", ?d, *, 5>`
	if got := tu.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestTupleFieldsIsCopy(t *testing.T) {
	tu := T(Int(1), Int(2))
	fs := tu.Fields()
	fs[0] = Int(99)
	if v, _ := tu.Field(0).IntValue(); v != 1 {
		t.Error("Fields() aliased internal slice")
	}
}

func TestBitSize(t *testing.T) {
	tests := []struct {
		name string
		f    Field
		want int
	}{
		{"bool", Bool(true), 1},
		{"zero int", Int(0), 1},
		{"one", Int(1), 2},
		{"seven", Int(7), 4},
		{"eight", Int(8), 5},
		{"negative", Int(-8), 4},
		{"string", Str("ab"), 16},
		{"bytes", Bytes([]byte{1, 2, 3}), 24},
		{"wildcard", Any(), 0},
		{"formal", Formal("v"), 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.f.BitSize(); got != tt.want {
				t.Errorf("BitSize = %d, want %d", got, tt.want)
			}
		})
	}
	tu := T(Bool(true), Int(7))
	if got := tu.BitSize(); got != 5 {
		t.Errorf("tuple BitSize = %d, want 5", got)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tuples := []Tuple{
		T(),
		T(Int(0)),
		T(Int(math.MaxInt64), Int(math.MinInt64)),
		T(Str(""), Str("hello"), Bool(true), Bool(false)),
		T(Bytes(nil), Bytes([]byte{0, 255})),
		T(Any(), Formal("x"), Int(-1)),
		T(Str("DECISION"), Formal("d"), Any()),
	}
	for _, tu := range tuples {
		enc := Encode(tu)
		dec, n, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode(%v): %v", tu, err)
		}
		if n != len(enc) {
			t.Errorf("Decode consumed %d of %d bytes", n, len(enc))
		}
		if !dec.Equal(tu) {
			t.Errorf("round trip: got %v, want %v", dec, tu)
		}
	}
}

func TestEncodeCanonical(t *testing.T) {
	a := Encode(T(Str("x"), Int(5)))
	b := Encode(T(Str("x"), Int(5)))
	if string(a) != string(b) {
		t.Error("encoding is not deterministic")
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		{0x01},             // arity 1, no field
		{0x01, 0xff},       // unknown mode
		{0x01, 0x01},       // value field, missing kind
		{0x01, 0x01, 0xee}, // unknown kind
		{0x01, 0x01, byte(KindString), 0x05, 'a'}, // truncated string
		{0x01, 0x03, 0x10, 'a'},                   // truncated formal name
		{0x01, 0x01, byte(KindBool)},              // truncated bool
		{0x01, 0x01, byte(KindBytes), 0x02, 0x01}, // truncated bytes
		{0x02, 0x01, byte(KindInt), 0x00},         // second field missing
		{0x01, 0x01, byte(KindInt), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80}, // overlong varint
	}
	for i, c := range cases {
		if _, _, err := Decode(c); err == nil {
			t.Errorf("case %d: expected decode error for % x", i, c)
		}
	}
}

func TestZigzagProperty(t *testing.T) {
	f := func(v int64) bool { return unzigzag(zigzag(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	f := func(i int64, s string, bs []byte, b bool, name string) bool {
		tu := T(Int(i), Str(s), Bytes(bs), Bool(b), Formal(name), Any())
		dec, n, err := Decode(Encode(tu))
		return err == nil && n == len(Encode(tu)) && dec.Equal(tu)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMatchIsDeterministicProperty(t *testing.T) {
	// Matching an entry against itself always succeeds; matching against
	// a template with wildcards in every position succeeds too.
	f := func(i int64, s string) bool {
		e := T(Int(i), Str(s))
		if !Matches(e, e) {
			return false
		}
		return Matches(e, T(Any(), Any())) && Matches(e, T(Formal("a"), Formal("b")))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
