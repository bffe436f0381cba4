package ltval

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"
)

func TestTypeRoundTrip(t *testing.T) {
	for _, typ := range []Type{Int32, Int64, Double, Timestamp, String, Blob} {
		got, err := ParseType(typ.String())
		if err != nil {
			t.Fatalf("ParseType(%q): %v", typ.String(), err)
		}
		if got != typ {
			t.Errorf("ParseType(%q) = %v, want %v", typ.String(), got, typ)
		}
	}
}

func TestParseTypeUnknown(t *testing.T) {
	if _, err := ParseType("varchar"); err == nil {
		t.Error("ParseType(varchar) succeeded, want error")
	}
	if _, err := ParseType("invalid"); err == nil {
		t.Error("ParseType(invalid) succeeded, want error")
	}
}

func TestTypeValid(t *testing.T) {
	if Invalid.Valid() {
		t.Error("Invalid.Valid() = true")
	}
	if !Int32.Valid() || !Blob.Valid() {
		t.Error("range endpoints not valid")
	}
	if Type(200).Valid() {
		t.Error("Type(200).Valid() = true")
	}
}

func TestConstructors(t *testing.T) {
	cases := []struct {
		v    Value
		typ  Type
		repr string
	}{
		{NewInt32(-7), Int32, "-7"},
		{NewInt64(1 << 40), Int64, "1099511627776"},
		{NewDouble(2.5), Double, "2.5"},
		{NewTimestamp(123456), Timestamp, "@123456"},
		{NewString("hi"), String, `"hi"`},
		{NewBlob([]byte{0xde, 0xad}), Blob, "x'dead'"},
	}
	for _, c := range cases {
		if c.v.Type != c.typ {
			t.Errorf("type = %v, want %v", c.v.Type, c.typ)
		}
		if got := c.v.String(); got != c.repr {
			t.Errorf("String() = %q, want %q", got, c.repr)
		}
	}
}

func TestZeroAndIsZero(t *testing.T) {
	for _, typ := range []Type{Int32, Int64, Double, Timestamp, String, Blob} {
		z := Zero(typ)
		if z.Type != typ {
			t.Errorf("Zero(%v).Type = %v", typ, z.Type)
		}
		if !z.IsZero() {
			t.Errorf("Zero(%v).IsZero() = false", typ)
		}
	}
	if NewInt32(1).IsZero() {
		t.Error("NewInt32(1).IsZero() = true")
	}
	if NewString("x").IsZero() {
		t.Error("NewString(x).IsZero() = true")
	}
}

func TestWiden(t *testing.T) {
	v := NewInt32(-5).Widen()
	if v.Type != Int64 || v.Int != -5 {
		t.Errorf("Widen = %+v, want int64 -5", v)
	}
	s := NewString("a")
	if got := s.Widen(); got.Type != String {
		t.Errorf("Widen on string changed type to %v", got.Type)
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt32(1), NewInt32(2), -1},
		{NewInt32(2), NewInt32(2), 0},
		{NewInt32(3), NewInt32(2), 1},
		{NewInt64(-1), NewInt64(1), -1},
		{NewDouble(1.5), NewDouble(2.5), -1},
		{NewDouble(2.5), NewDouble(2.5), 0},
		{NewTimestamp(10), NewTimestamp(20), -1},
		{NewString("a"), NewString("b"), -1},
		{NewString("ab"), NewString("a"), 1},
		{NewString("a"), NewString("a"), 0},
		{NewBlob([]byte{1}), NewBlob([]byte{1, 0}), -1},
		// Cross-width integer comparison must be numeric so widening is
		// order-preserving.
		{NewInt32(5), NewInt64(6), -1},
		{NewInt64(5), NewInt32(5), 0},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := c.b.Compare(c.a); got != -c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.b, c.a, got, -c.want)
		}
	}
}

func TestCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := NewInt64(a), NewInt64(b)
		return va.Compare(vb) == -vb.Compare(va)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCompareDoubleTotalOrder pins the order of doubles: IEEE 754
// totalOrder, in which a NaN's sign and payload place it, −0 sorts before
// +0, and math.NaN() sorts after +Inf.
func TestCompareDoubleTotalOrder(t *testing.T) {
	ordered := []float64{
		math.Float64frombits(0xfff8000000000002), // −NaN, larger payload first
		math.Float64frombits(0xfff8000000000001),
		math.Inf(-1), -math.MaxFloat64, -1.5, -math.SmallestNonzeroFloat64,
		math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, 1.5, math.MaxFloat64, math.Inf(1),
		math.Float64frombits(0x7ff0000000000001), // signalling NaN
		math.Float64frombits(0x7ff8000000000000),
		math.NaN(), // 0x7ff8000000000001
		math.Float64frombits(0x7ff8000000000002),
	}
	for i, a := range ordered {
		for j, b := range ordered {
			if got, want := NewDouble(a).Compare(NewDouble(b)), cmpInt64(int64(i), int64(j)); got != want {
				t.Errorf("Compare(%#x, %#x) = %d, want %d", math.Float64bits(a), math.Float64bits(b), got, want)
			}
		}
	}
}

// FuzzValueOrder checks that Compare is a total order over every type,
// that two values of one type compare equal exactly when they encode to
// the same bytes, and that Int32 against Int64 compares numerically. Each
// value is a type tag plus 64 bits: an integer, a double's bits, or up to
// seven bytes of a string or blob.
func FuzzValueOrder(f *testing.F) {
	bits := math.Float64bits
	d, i32, i64 := uint8(Double), uint8(Int32), uint8(Int64)
	f.Add(d, bits(math.NaN()), d, uint64(0x7ff8000000000002), d, uint64(0xfff8000000000001))
	f.Add(d, uint64(0xfff8000000000000), d, bits(math.Inf(-1)), d, bits(math.Inf(1)))
	f.Add(d, uint64(0), d, uint64(1<<63), d, uint64(0x7ff0000000000001))
	f.Add(d, uint64(1), d, uint64(1<<63|1), d, uint64(0x000fffffffffffff))
	f.Add(i32, uint64(5), i64, uint64(5), i64, uint64(1<<40))
	f.Add(i32, uint64(1<<63), i64, ^uint64(0), i32, uint64(0xffffffff))
	f.Add(uint8(String), uint64(0x0161), uint8(Blob), uint64(0x0161), uint8(Timestamp), uint64(7))
	f.Fuzz(func(t *testing.T, ta uint8, a uint64, tb uint8, b uint64, tc uint8, c uint64) {
		vs := [3]Value{fuzzValue(ta, a), fuzzValue(tb, b), fuzzValue(tc, c)}
		for _, x := range vs {
			for _, y := range vs {
				xy, yx := x.Compare(y), y.Compare(x)
				if xy != -yx {
					t.Fatalf("Compare(%v, %v) = %d but Compare(%v, %v) = %d", x, y, xy, y, x, yx)
				}
				if x.Type == y.Type && (xy == 0) != bytes.Equal(x.Append(nil), y.Append(nil)) {
					t.Fatalf("Compare(%v, %v) = %d, but their encodings equal is %v", x, y, xy,
						bytes.Equal(x.Append(nil), y.Append(nil)))
				}
				if isInt(x.Type) && isInt(y.Type) && xy != cmpInt64(x.Int, y.Int) {
					t.Fatalf("Compare(%v %v, %v %v) = %d, want the numeric order", x.Type, x, y.Type, y, xy)
				}
				for _, z := range vs {
					yz, xz := y.Compare(z), x.Compare(z)
					if xy <= 0 && yz <= 0 && (xz > 0 || (xz == 0 && (xy < 0 || yz < 0))) {
						t.Fatalf("not transitive: %v ≤ %v (%d), %v ≤ %v (%d), but %v vs %v is %d",
							x, y, xy, y, z, yz, x, z, xz)
					}
				}
			}
		}
	})
}

// fuzzValue builds a value of type tag (1 + tag mod 6 if tag names no
// type) from 64 bits.
func fuzzValue(tag uint8, u uint64) Value {
	t := Type(tag)
	if !t.Valid() {
		t = Type(1 + tag%6)
	}
	switch t {
	case Int32:
		return NewInt32(int32(u))
	case Int64:
		return NewInt64(int64(u))
	case Double:
		return NewDouble(math.Float64frombits(u))
	case Timestamp:
		return NewTimestamp(int64(u))
	case String:
		return NewString(string(fuzzBytes(u)))
	default:
		return NewBlob(fuzzBytes(u))
	}
}

// fuzzBytes spells u's low seven bytes, of a length set by its high byte.
func fuzzBytes(u uint64) []byte {
	b := binary.LittleEndian.AppendUint64(nil, u)
	return b[:int(u>>56)%8]
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	values := []Value{
		NewInt32(0), NewInt32(-1), NewInt32(math.MaxInt32), NewInt32(math.MinInt32),
		NewInt64(0), NewInt64(-1), NewInt64(math.MaxInt64), NewInt64(math.MinInt64),
		NewDouble(0), NewDouble(-1.5), NewDouble(math.Inf(1)), NewDouble(math.SmallestNonzeroFloat64),
		NewTimestamp(0), NewTimestamp(1735689600000000),
		NewString(""), NewString("hello"), NewString(string(make([]byte, 300))),
		NewBlob(nil), NewBlob([]byte{0, 1, 2, 255}),
	}
	for _, v := range values {
		buf := v.Append(nil)
		if len(buf) != v.EncodedSize() {
			t.Errorf("%v: EncodedSize = %d, wrote %d", v, v.EncodedSize(), len(buf))
		}
		got, n, err := Decode(v.Type, buf)
		if err != nil {
			t.Fatalf("Decode(%v): %v", v, err)
		}
		if n != len(buf) {
			t.Errorf("%v: consumed %d of %d", v, n, len(buf))
		}
		if !got.Equal(v) {
			t.Errorf("round trip: got %v, want %v", got, v)
		}
	}
}

func TestEncodeDecodeQuick(t *testing.T) {
	f := func(i32 int32, i64 int64, d float64, s string, b []byte) bool {
		for _, v := range []Value{NewInt32(i32), NewInt64(i64), NewDouble(d), NewString(s), NewBlob(b)} {
			buf := v.Append(nil)
			got, n, err := Decode(v.Type, buf)
			if err != nil || n != len(buf) || !got.Equal(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeShortBuffers(t *testing.T) {
	for _, typ := range []Type{Int32, Int64, Double, Timestamp} {
		if _, _, err := Decode(typ, []byte{1, 2}); err == nil {
			t.Errorf("Decode(%v, short) succeeded", typ)
		}
	}
	// Length prefix claims more bytes than available.
	if _, _, err := Decode(String, []byte{5, 'a'}); err == nil {
		t.Error("Decode(String, truncated) succeeded")
	}
	// Empty buffer for a varint-prefixed type.
	if _, _, err := Decode(Blob, nil); err == nil {
		t.Error("Decode(Blob, nil) succeeded")
	}
}

func TestDecodeInvalidType(t *testing.T) {
	if _, _, err := Decode(Invalid, []byte{1, 2, 3, 4}); err == nil {
		t.Error("Decode(Invalid) succeeded")
	}
}

func TestDecodeAliasesBuffer(t *testing.T) {
	v := NewString("shared")
	buf := v.Append(nil)
	got, _, err := Decode(String, buf)
	if err != nil {
		t.Fatal(err)
	}
	buf[1] = 'X' // mutate the backing buffer
	if string(got.Bytes) != "Xhared" {
		t.Errorf("decoded value should alias buffer, got %q", got.Bytes)
	}
}

func TestUvarintBoundaries(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 300, 16383, 16384, 1 << 20} {
		b := make([]byte, n)
		v := NewBlob(b)
		buf := v.Append(nil)
		got, consumed, err := Decode(Blob, buf)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if consumed != len(buf) || len(got.Bytes) != n {
			t.Errorf("n=%d: consumed=%d len=%d", n, consumed, len(got.Bytes))
		}
	}
}
