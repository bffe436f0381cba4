// Package ltval defines LittleTable's value model: the six column types the
// paper lists in §3.5 (32- and 64-bit integers, double-precision floats,
// timestamps, variable-length strings, and blobs), together with ordering,
// and a compact binary encoding used by blocks and the wire protocol.
//
// LittleTable does not support NULL (§3.5); applications that need a
// sentinel use an in-band value such as -1.
package ltval

import (
	"fmt"
	"math"
	"strconv"
)

// Type identifies a column type.
type Type uint8

// The column types supported by LittleTable (§3.5).
const (
	Invalid Type = iota
	Int32
	Int64
	Double
	Timestamp // microseconds since the Unix epoch
	String
	Blob
)

var typeNames = [...]string{
	Invalid:   "invalid",
	Int32:     "int32",
	Int64:     "int64",
	Double:    "double",
	Timestamp: "timestamp",
	String:    "string",
	Blob:      "blob",
}

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// ParseType converts a type name back to a Type.
func ParseType(s string) (Type, error) {
	for t, name := range typeNames {
		if t != 0 && s == name {
			return Type(t), nil
		}
	}
	return Invalid, fmt.Errorf("ltval: unknown type %q", s)
}

// Valid reports whether t is one of the defined column types.
func (t Type) Valid() bool { return t >= Int32 && t <= Blob }

// Fixed reports whether values of this type have a fixed encoded size.
func (t Type) Fixed() bool { return t != String && t != Blob }

// Value is a single cell. Exactly one of the payload fields is meaningful,
// selected by Type: Int holds Int32, Int64, and Timestamp values; Float
// holds Double values; Bytes holds String and Blob values.
type Value struct {
	Type  Type
	Int   int64
	Float float64
	Bytes []byte
}

// NewInt32 returns an Int32 value.
func NewInt32(v int32) Value { return Value{Type: Int32, Int: int64(v)} }

// NewInt64 returns an Int64 value.
func NewInt64(v int64) Value { return Value{Type: Int64, Int: v} }

// NewDouble returns a Double value.
func NewDouble(v float64) Value { return Value{Type: Double, Float: v} }

// NewTimestamp returns a Timestamp value from microseconds since the epoch.
func NewTimestamp(us int64) Value { return Value{Type: Timestamp, Int: us} }

// NewString returns a String value.
func NewString(s string) Value { return Value{Type: String, Bytes: []byte(s)} }

// NewBlob returns a Blob value. The slice is retained, not copied.
func NewBlob(b []byte) Value { return Value{Type: Blob, Bytes: b} }

// Zero returns the zero value for a type, used when a schema gains a column
// and old rows must be filled with the column default (§3.5).
func Zero(t Type) Value {
	switch t {
	case Int32, Int64, Timestamp:
		return Value{Type: t}
	case Double:
		return Value{Type: Double}
	case String, Blob:
		return Value{Type: t, Bytes: nil}
	default:
		return Value{}
	}
}

// IsZero reports whether v is the zero value of its type.
func (v Value) IsZero() bool {
	switch v.Type {
	case Int32, Int64, Timestamp:
		return v.Int == 0
	case Double:
		return v.Float == 0
	case String, Blob:
		return len(v.Bytes) == 0
	default:
		return true
	}
}

// Widen converts an Int32 value to Int64, used when reading rows written
// under a schema whose column precision was later increased (§3.5).
func (v Value) Widen() Value {
	if v.Type == Int32 {
		return Value{Type: Int64, Int: v.Int}
	}
	return v
}

// Compare orders two values of the same type: -1 if v < w, 0 if equal,
// +1 if v > w. Values of different types are ordered by type tag so that
// the total order is still well-defined (this only matters transiently
// during schema changes).
//
// Doubles follow IEEE 754 totalOrder: −NaN < −Inf < … < −0 < +0 < … <
// +Inf < +NaN, NaNs ordered by payload, so two doubles compare equal
// exactly when their encoded bits are equal, as the Bloom filter, the
// block codec and agg's group map identify them. math.NaN() sorts after
// +Inf.
func (v Value) Compare(w Value) int {
	if v.Type != w.Type {
		// Int32 vs Int64 compare numerically so widening is order-preserving.
		if isInt(v.Type) && isInt(w.Type) {
			return cmpInt64(v.Int, w.Int)
		}
		return cmpInt64(int64(v.Type), int64(w.Type))
	}
	switch v.Type {
	case Int32, Int64, Timestamp:
		return cmpInt64(v.Int, w.Int)
	case Double:
		return cmpInt64(totalOrderKey(v.Float), totalOrderKey(w.Float))
	case String, Blob:
		return cmpBytes(v.Bytes, w.Bytes)
	default:
		return 0
	}
}

// totalOrderKey maps a double to an int64 whose order is IEEE 754
// totalOrder: its bits as a signed integer, with a negative double's
// magnitude bits flipped so that a larger magnitude sorts lower and −0
// (−1 here) sorts just below +0.
func totalOrderKey(f float64) int64 {
	i := int64(math.Float64bits(f))
	return i ^ int64(uint64(i>>63)>>1)
}

// Equal reports whether v and w are the same value.
func (v Value) Equal(w Value) bool { return v.Compare(w) == 0 }

func isInt(t Type) bool { return t == Int32 || t == Int64 }

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpBytes(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return cmpInt64(int64(len(a)), int64(len(b)))
}

// String renders the value for logs and the SQL shell.
func (v Value) String() string {
	switch v.Type {
	case Int32, Int64:
		return strconv.FormatInt(v.Int, 10)
	case Timestamp:
		return fmt.Sprintf("@%d", v.Int)
	case Double:
		return strconv.FormatFloat(v.Float, 'g', -1, 64)
	case String:
		return strconv.Quote(string(v.Bytes))
	case Blob:
		return fmt.Sprintf("x'%x'", v.Bytes)
	default:
		return "<invalid>"
	}
}

// EncodedSize returns the number of bytes Append will write for v.
func (v Value) EncodedSize() int {
	switch v.Type {
	case Int32:
		return 4
	case Int64, Timestamp:
		return 8
	case Double:
		return 8
	case String, Blob:
		return uvarintLen(uint64(len(v.Bytes))) + len(v.Bytes)
	default:
		return 0
	}
}

// Append appends the binary encoding of v to dst and returns the extended
// slice. The encoding is typeless: the schema supplies types on decode.
// Integers are little-endian fixed width; strings and blobs are
// uvarint-length-prefixed.
func (v Value) Append(dst []byte) []byte {
	switch v.Type {
	case Int32:
		u := uint32(v.Int)
		return append(dst, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
	case Int64, Timestamp:
		u := uint64(v.Int)
		return appendU64(dst, u)
	case Double:
		return appendU64(dst, math.Float64bits(v.Float))
	case String, Blob:
		dst = appendUvarint(dst, uint64(len(v.Bytes)))
		return append(dst, v.Bytes...)
	default:
		return dst
	}
}

// Decode reads one value of type t from b, returning the value and the
// number of bytes consumed. Byte-slice values alias b; callers that retain
// them across buffer reuse must copy.
func Decode(t Type, b []byte) (Value, int, error) {
	switch t {
	case Int32:
		if len(b) < 4 {
			return Value{}, 0, errShort(t)
		}
		u := uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
		return Value{Type: Int32, Int: int64(int32(u))}, 4, nil
	case Int64, Timestamp:
		u, err := readU64(b)
		if err != nil {
			return Value{}, 0, err
		}
		return Value{Type: t, Int: int64(u)}, 8, nil
	case Double:
		u, err := readU64(b)
		if err != nil {
			return Value{}, 0, err
		}
		return Value{Type: Double, Float: math.Float64frombits(u)}, 8, nil
	case String, Blob:
		n, w := uvarint(b)
		if w <= 0 || uint64(len(b)-w) < n {
			return Value{}, 0, errShort(t)
		}
		return Value{Type: t, Bytes: b[w : w+int(n)]}, w + int(n), nil
	default:
		return Value{}, 0, fmt.Errorf("ltval: decode of invalid type %v", t)
	}
}

func errShort(t Type) error { return fmt.Errorf("ltval: short buffer decoding %v", t) }

func appendU64(dst []byte, u uint64) []byte {
	return append(dst,
		byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
		byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
}

func readU64(b []byte) (uint64, error) {
	if len(b) < 8 {
		return 0, fmt.Errorf("ltval: short buffer decoding u64")
	}
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56, nil
}

func appendUvarint(dst []byte, u uint64) []byte {
	for u >= 0x80 {
		dst = append(dst, byte(u)|0x80)
		u >>= 7
	}
	return append(dst, byte(u))
}

func uvarintLen(u uint64) int {
	n := 1
	for u >= 0x80 {
		u >>= 7
		n++
	}
	return n
}

func uvarint(b []byte) (uint64, int) {
	var u uint64
	var shift uint
	for i, c := range b {
		if i >= 10 {
			return 0, -1
		}
		if c < 0x80 {
			return u | uint64(c)<<shift, i + 1
		}
		u |= uint64(c&0x7f) << shift
		shift += 7
	}
	return 0, 0
}
