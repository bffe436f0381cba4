package block

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"littletable/internal/ltval"
	"littletable/internal/schema"
)

// Fuzz targets for the per-column codecs and the columnar block image.
// Each target does double duty: round-trip arbitrary column vectors
// (derived from the fuzz input) exactly, and decode the raw fuzz input as
// an encoded stream — which must error or succeed but never panic and
// never allocate beyond the input-proportional bounds.

// fuzzInts carves the input into int64 column values.
func fuzzInts(data []byte) []int64 {
	vals := make([]int64, 0, len(data)/8+1)
	for len(data) >= 8 {
		vals = append(vals, int64(binary.LittleEndian.Uint64(data)))
		data = data[8:]
	}
	if len(data) > 0 {
		var u uint64
		for i, c := range data {
			u |= uint64(c) << (8 * i)
		}
		vals = append(vals, int64(u))
	}
	return vals
}

func FuzzDeltaTimestamps(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeDelta(nil, []int64{1_782_018_420_000_000, 1_782_018_480_000_000, 1_782_018_540_000_000}))
	f.Add(encodeDelta(nil, []int64{math.MinInt64, math.MaxInt64}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<18 {
			return
		}
		vals := fuzzInts(data)
		enc := encodeDelta(nil, vals)
		got, err := decodeDelta(ltval.Timestamp, enc, len(vals))
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("value %d = %d, want %d", i, got[i], vals[i])
			}
		}
		// Arbitrary bytes as a delta stream: error or success, no panic;
		// Int32 exercises the range check.
		for _, n := range []int{0, 1, len(data), 3 * len(data)} {
			_, _ = decodeDelta(ltval.Timestamp, data, n)
			_, _ = decodeDelta(ltval.Int32, data, n)
		}
	})
}

func FuzzXORFloats(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeXOR(nil, []float64{42.5, 42.5, 43.0}))
	f.Add(encodeXOR(nil, []float64{math.Inf(1), math.NaN(), 0}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<18 {
			return
		}
		vals := make([]float64, 0, len(data)/8+1)
		for _, u := range fuzzInts(data) {
			vals = append(vals, math.Float64frombits(uint64(u)))
		}
		enc := encodeXOR(nil, vals)
		if !bytes.Equal(enc, refEncodeXOR(nil, vals)) {
			t.Fatalf("encodeXOR differs from the bit-at-a-time reference")
		}
		got, err := decodeXOR(enc, len(vals))
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		for i := range vals {
			if math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
				t.Fatalf("value %d bits differ", i)
			}
		}
		for _, n := range []int{0, 1, len(data), 8*len(data) + 64} {
			_, _ = decodeXOR(data, n)
		}
	})
}

func FuzzDictStrings(f *testing.F) {
	f.Add([]byte{}, uint8(3))
	f.Add([]byte("wan1wan2wan1wan1"), uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		if len(data) > 1<<18 {
			return
		}
		// Carve the input into cells of `chunk` bytes (0 → one big cell).
		c := &colAcc{class: schema.ClassBytes}
		step := int(chunk)
		if step == 0 {
			step = len(data) + 1
		}
		for off := 0; off < len(data); off += step {
			end := off + step
			if end > len(data) {
				end = len(data)
			}
			c.flat = append(c.flat, data[off:end]...)
			c.ends = append(c.ends, len(c.flat))
		}
		if enc, ok := encodeDict(nil, c, new(encScratch)); ok {
			got, err := decodeDict(ltval.String, enc, len(c.ends))
			if err != nil {
				t.Fatalf("round trip rejected: %v", err)
			}
			for i := range c.ends {
				if string(got.value(i).Bytes) != string(c.cell(i)) {
					t.Fatalf("cell %d mismatch", i)
				}
			}
		}
		// The full chooser (dict/lzf/plain) must also round-trip.
		enc, codec := encodeBytesColumn(c, new(encScratch))
		got, err := decodeColumn(ltval.String, codec, enc, len(c.ends))
		if err != nil {
			t.Fatalf("chooser round trip rejected (codec %d): %v", codec, err)
		}
		for i := range c.ends {
			if string(got.value(i).Bytes) != string(c.cell(i)) {
				t.Fatalf("chooser cell %d mismatch (codec %d)", i, codec)
			}
		}
		// Arbitrary bytes through every byte-class decoder.
		for _, n := range []int{0, 1, len(data)} {
			_, _ = decodeDict(ltval.String, data, n)
			_, _ = decodeLZF(ltval.Blob, data, n)
			_, _ = decodePlain(ltval.String, data, n)
		}
	})
}

// FuzzBlockRoundTrip drives the whole block writer/decoder: rows derived
// from the input must round-trip identically through both encodings, and
// the input itself must decode as a columnar image without panicking.
func FuzzBlockRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint16(3))
	f.Add([]byte("abcdefgh12345678"), uint16(40))
	// One row of epoch-sized integers: the columnar trial loses.
	f.Add([]byte("\x00\x80\x1e\x8d\x0e\x53\x06\x00"), uint16(1))
	f.Fuzz(func(t *testing.T, data []byte, nrows uint16) {
		if len(data) > 1<<16 {
			return
		}
		sc := testSchema(t)
		n := int(nrows % 512)
		ints := fuzzInts(data)
		pick := func(i int) int64 {
			if len(ints) == 0 {
				return int64(i)
			}
			return ints[i%len(ints)]
		}
		auto := NewWriter(sc)
		legacy := NewWriterMode(sc, ModeLegacy)
		var rows []schema.Row
		for i := 0; i < n; i++ {
			stroff := i % (len(data) + 1)
			r := schema.Row{
				ltval.NewInt64(pick(i)),
				ltval.NewTimestamp(pick(i + 1)),
				ltval.NewString(string(data[stroff:])),
			}
			rows = append(rows, r)
			auto.Append(r)
			legacy.Append(r)
		}
		aimg, aenc := auto.Finish()
		limg, lenc := legacy.Finish()
		if lenc != EncLegacy {
			t.Fatal("legacy writer emitted non-legacy encoding")
		}
		// The row-major image is built from the column vectors, never from
		// the rows: in legacy mode, and in auto mode when the columnar
		// trial loses, it must be exactly the rows as AppendRow encodes
		// them, then the offset directory and the row count.
		var want, dir []byte
		for _, r := range rows {
			dir = binary.LittleEndian.AppendUint32(dir, uint32(len(want)))
			want = sc.AppendRow(want, r)
		}
		want = binary.LittleEndian.AppendUint32(append(want, dir...), uint32(len(rows)))
		if !bytes.Equal(limg, want) {
			t.Fatalf("legacy image differs from the AppendRow images: %d bytes vs %d", len(limg), len(want))
		}
		if aenc == EncLegacy && !bytes.Equal(aimg, want) {
			t.Fatalf("auto-mode fallback image differs from the AppendRow images: %d bytes vs %d", len(aimg), len(want))
		}
		if aenc == EncColumnar && len(aimg) >= len(want) {
			t.Fatalf("columnar image of %d bytes chosen over a %d-byte row-major one", len(aimg), len(want))
		}
		for _, pair := range []struct {
			img []byte
			enc Encoding
		}{{aimg, aenc}, {limg, lenc}} {
			b, err := Decode(sc, pair.enc, pair.img)
			if err != nil {
				t.Fatalf("decode(%v) rejected own output: %v", pair.enc, err)
			}
			if b.Len() != len(rows) {
				t.Fatalf("decode(%v) Len = %d, want %d", pair.enc, b.Len(), len(rows))
			}
			for i := range rows {
				got, err := b.Row(i)
				if err != nil {
					t.Fatalf("row %d: %v", i, err)
				}
				for c := range rows[i] {
					if !got[c].Equal(rows[i][c]) {
						t.Fatalf("enc %v row %d col %d mismatch", pair.enc, i, c)
					}
				}
			}
		}
		// Arbitrary bytes as a columnar image: error or valid block.
		if b, err := Decode(sc, EncColumnar, data); err == nil {
			for i := 0; i < b.Len(); i++ {
				if _, err := b.Row(i); err != nil {
					break
				}
			}
		}
	})
}
