package wire

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"littletable/internal/ltval"
	"littletable/internal/schema"
)

func fuzzSchema() *schema.Schema {
	return schema.MustNew([]schema.Column{
		{Name: "k", Type: ltval.Int64},
		{Name: "ts", Type: ltval.Timestamp},
		{Name: "s", Type: ltval.String},
	}, []string{"k", "ts"})
}

// coldMessages returns a zero message of every cold type, in the order
// the golden cases first name it.
func coldMessages() []Message {
	seen := make(map[reflect.Type]bool)
	var out []Message
	for _, c := range goldenCases() {
		if t := reflect.TypeOf(c.m); !seen[t] {
			seen[t] = true
			out = append(out, newLike(c.m))
		}
	}
	return out
}

// hotDecoders are the hand-written decoders, and PeekTable, each reduced
// to its error.
func hotDecoders(sc *schema.Schema) []func([]byte) error {
	return []func([]byte) error{
		func(p []byte) error { _, err := DecodeRows(p, sc); return err },
		func(p []byte) error { _, err := DecodeRowResult(p, sc); return err },
		func(p []byte) error { _, err := DecodeScatterRows(p); return err },
		func(p []byte) error { _, err := DecodeAggResult(p); return err },
		func(p []byte) error { _, err := PeekTable(p); return err },
		func(p []byte) error {
			m, d, err := DecodeInsertHeader(p)
			if err != nil {
				return err
			}
			return m.FinishDecode(d, sc)
		},
	}
}

// decodeEvery runs every decoder over p. A cold message that decodes must
// re-encode to bytes that decode to an equal message.
func decodeEvery(t *testing.T, cold []Message, hot []func([]byte) error, p []byte) {
	t.Helper()
	for _, proto := range cold {
		m := newLike(proto)
		if decode(p, m) != nil {
			continue
		}
		again := newLike(proto)
		if err := decode(encode(m), again); err != nil {
			t.Fatalf("%T: re-decode of a valid payload failed: %v", m, err)
		}
		if !sameMessage(reflect.ValueOf(m), reflect.ValueOf(again)) {
			t.Fatalf("%T: decode, encode, decode changed the message:\n got %+v\nwant %+v", m, again, m)
		}
	}
	for _, dec := range hot {
		dec(p)
	}
}

// sameMessage is reflect.DeepEqual, except that floats compare by their
// bits, so a NaN the payload carried equals itself.
func sameMessage(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int, reflect.Int64, reflect.Int32:
		return a.Int() == b.Int()
	case reflect.Uint8, reflect.Uint32, reflect.Uint64:
		return a.Uint() == b.Uint()
	case reflect.String:
		return a.String() == b.String()
	case reflect.Pointer:
		return a.IsNil() == b.IsNil() && (a.IsNil() || sameMessage(a.Elem(), b.Elem()))
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameMessage(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameMessage(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	panic("sameMessage: unexpected kind " + a.Kind().String())
}

// FuzzDecoders: arbitrary payloads into every decoder must error or
// succeed, never panic — the server feeds network bytes straight in —
// and a cold message that decodes must survive a re-encode. Seeds are
// the golden payloads, a payload of each hot message and junk.
func FuzzDecoders(f *testing.F) {
	sc := fuzzSchema()
	for _, c := range goldenCases() {
		f.Add(encode(c.m))
	}
	row := schema.Row{ltval.NewInt64(1), ltval.NewTimestamp(2), ltval.NewString("x")}
	f.Add(NewInsert("t", sc, true, []schema.Row{row}).Encode())
	f.Add((&Rows{SchemaVersion: sc.Version, More: true, Rows: []schema.Row{row}}).Encode(sc))
	f.Add((&RowResult{Found: true, Row: row}).Encode(sc))
	sr, _ := (&ScatterRows{Tables: []ScatterTableRows{{Table: "t", Schema: sc, More: true, Rows: []schema.Row{row}}}}).Encode()
	f.Add(sr)
	f.Add(testAggResult().Encode())
	for _, g := range garbage {
		f.Add(g)
	}
	cold, hot := coldMessages(), hotDecoders(sc)
	f.Fuzz(func(t *testing.T, payload []byte) {
		decodeEvery(t, cold, hot, payload)
	})
}

// garbage is junk every decoder must reject or survive.
var garbage = [][]byte{
	nil, {1}, {255, 255, 255, 255}, {0, 0, 0, 0, 9, 9, 9},
	{0xff, 0xff, 0xff, 0xff, 0xff}, bytes.Repeat([]byte{0xab}, 40),
}

func TestDecodeGarbage(t *testing.T) {
	cold, hot := coldMessages(), hotDecoders(fuzzSchema())
	for _, g := range garbage {
		decodeEvery(t, cold, hot, g)
	}
}
