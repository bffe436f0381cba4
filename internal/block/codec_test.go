package block

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"littletable/internal/ltval"
	"littletable/internal/schema"
)

func intVals(t *testing.T, typ ltval.Type, enc []byte, n int) []int64 {
	t.Helper()
	vals, err := decodeDelta(typ, enc, n)
	if err != nil {
		t.Fatal(err)
	}
	return vals
}

func TestDeltaRoundTripExtremes(t *testing.T) {
	cases := [][]int64{
		{},
		{0},
		{math.MinInt64, math.MaxInt64, math.MinInt64},
		{1, 1, 1, 1},
		{1000, 2000, 3000, 4000, 5001},
		{-5, 5, -5, 5},
		{math.MaxInt64, math.MaxInt64 - 1, math.MinInt64 + 2},
	}
	rng := rand.New(rand.NewSource(7))
	walk := make([]int64, 1000)
	v := int64(0)
	for i := range walk {
		v += rng.Int63n(2001) - 1000
		walk[i] = v
	}
	cases = append(cases, walk)
	for ci, vals := range cases {
		enc := encodeDelta(nil, vals)
		got := intVals(t, ltval.Int64, enc, len(vals))
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("case %d: value %d = %d, want %d", ci, i, got[i], vals[i])
			}
		}
	}
}

func TestDeltaDenseTimestampsCompress(t *testing.T) {
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = 1_782_018_420_000_000 + int64(i)*60_000_000
	}
	enc := encodeDelta(nil, vals)
	// First value is a large varint, the rest collapse to 1-byte zero dods.
	if len(enc) > 20+len(vals) {
		t.Errorf("regular timestamps encode to %d bytes for %d values", len(enc), len(vals))
	}
}

func TestDeltaInt32OverflowRejected(t *testing.T) {
	// A delta stream whose values walk outside int32 must be corruption for
	// an Int32 column, never a silently wrapped value.
	enc := encodeDelta(nil, []int64{math.MaxInt32, math.MaxInt32 + 1})
	if _, err := decodeDelta(ltval.Int32, enc, 2); err == nil {
		t.Error("int32 overflow accepted")
	}
	if _, err := decodeDelta(ltval.Int64, enc, 2); err != nil {
		t.Errorf("same stream rejected for int64: %v", err)
	}
}

func TestXORRoundTripSpecials(t *testing.T) {
	cases := [][]float64{
		{},
		{0},
		{1.5, 1.5, 1.5},
		{math.Inf(1), math.Inf(-1), math.NaN(), 0, math.Copysign(0, -1)},
		{math.SmallestNonzeroFloat64, math.MaxFloat64, -math.SmallestNonzeroFloat64},
		{15.5, 14.0625, 3.25, 8.625, 13.1},
	}
	rng := rand.New(rand.NewSource(11))
	gauge := make([]float64, 1000)
	g := 20.0
	for i := range gauge {
		g += rng.Float64() - 0.5
		gauge[i] = g
	}
	cases = append(cases, gauge)
	for ci, vals := range cases {
		enc := encodeXOR(nil, vals)
		got, err := decodeXOR(enc, len(vals))
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		for i := range vals {
			if math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
				t.Fatalf("case %d: value %d = %v, want %v", ci, i, got[i], vals[i])
			}
		}
	}
}

func TestXORConstantSeriesCompress(t *testing.T) {
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = 42.5
	}
	enc := encodeXOR(nil, vals)
	// 64 bits for the first value + 1 bit per repeat.
	if len(enc) > 8+len(vals)/8+2 {
		t.Errorf("constant series encodes to %d bytes for %d values", len(enc), len(vals))
	}
}

func bytesAcc(cells ...string) *colAcc {
	c := &colAcc{class: schema.ClassBytes}
	for _, s := range cells {
		c.flat = append(c.flat, s...)
		c.ends = append(c.ends, len(c.flat))
	}
	return c
}

func TestDictRoundTrip(t *testing.T) {
	c := bytesAcc("wan1", "wan2", "wan1", "", "wan1", "wan2")
	enc, ok := encodeDict(nil, c)
	if !ok {
		t.Fatal("low-cardinality column rejected")
	}
	vals, err := decodeDict(ltval.String, enc, len(c.ends))
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.ends {
		if got := vals.value(i).Bytes; string(got) != string(c.cell(i)) {
			t.Fatalf("cell %d = %q, want %q", i, got, c.cell(i))
		}
	}
}

func TestDictHighCardinalityFallsBack(t *testing.T) {
	cells := make([]string, maxDictEntries+1)
	for i := range cells {
		cells[i] = fmt.Sprintf("interface-%d", i)
	}
	c := bytesAcc(cells...)
	if _, ok := encodeDict(nil, c); ok {
		t.Error("dictionary accepted past the entry cap")
	}
	// The column-level chooser must still round-trip via LZF or plain.
	enc, codec := encodeBytesColumn(nil, c)
	vals, err := decodeColumn(ltval.String, codec, enc, len(c.ends))
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if string(vals.value(i).Bytes) != cells[i] {
			t.Fatalf("cell %d mismatch via codec %d", i, codec)
		}
	}
}

func TestDictBadIndexRejected(t *testing.T) {
	c := bytesAcc("a", "b", "a")
	enc, _ := encodeDict(nil, c)
	// Point the last row at a nonexistent entry.
	enc[len(enc)-1] = 7
	if _, err := decodeDict(ltval.String, enc, 3); err == nil {
		t.Error("out-of-range dictionary index accepted")
	}
}

// buildColumnarImage writes rows in auto mode with shapes that force the
// columnar encoding, returning the image and the expected rows.
func buildColumnarImage(t *testing.T) ([]byte, []schema.Row) {
	t.Helper()
	sc := testSchema(t)
	w := NewWriter(sc)
	var rows []schema.Row
	for i := 0; i < 300; i++ {
		r := row(int64(i/10), int64(1_000_000*(i%10)), fmt.Sprintf("v%d", i%3))
		rows = append(rows, r)
		w.Append(r)
	}
	img, enc := w.Finish()
	if enc != EncColumnar {
		t.Fatal("test shape did not choose columnar")
	}
	return append([]byte(nil), img...), rows
}

func sameRows(b *Block, rows []schema.Row) bool {
	if b.Len() != len(rows) {
		return false
	}
	for i := range rows {
		got, err := b.Row(i)
		if err != nil {
			return false
		}
		for c := range rows[i] {
			if !got[c].Equal(rows[i][c]) {
				return false
			}
		}
	}
	return true
}

// TestColumnarBitFlipSweep flips every bit of a columnar image and demands
// the decoder either reject it or return exactly the original rows — never
// wrong rows, never a panic. (On disk a record CRC fronts this decoder; the
// sweep proves the decoder is safe even if that line fails.)
func TestColumnarBitFlipSweep(t *testing.T) {
	img, rows := buildColumnarImage(t)
	sc := testSchema(t)
	step := 1
	if testing.Short() {
		step = 13
	}
	flipped := 0
	for bit := 0; bit < 8*len(img); bit += step {
		img[bit/8] ^= 1 << (bit % 8)
		if b, err := Decode(sc, EncColumnar, img); err == nil {
			if !sameRows(b, rows) {
				t.Fatalf("bit flip %d decoded to wrong rows", bit)
			}
			flipped++
		}
		img[bit/8] ^= 1 << (bit % 8)
	}
	t.Logf("%d flips decoded benignly", flipped)
}

// TestColumnarTruncationSweep decodes every prefix of a columnar image:
// each must error or (for the full image) yield the original rows.
func TestColumnarTruncationSweep(t *testing.T) {
	img, rows := buildColumnarImage(t)
	sc := testSchema(t)
	for n := 0; n < len(img); n++ {
		if b, err := Decode(sc, EncColumnar, img[:n]); err == nil && !sameRows(b, rows) {
			t.Fatalf("truncation to %d bytes decoded to wrong rows", n)
		}
	}
	b, err := Decode(sc, EncColumnar, img)
	if err != nil || !sameRows(b, rows) {
		t.Fatalf("full image failed: %v", err)
	}
}
