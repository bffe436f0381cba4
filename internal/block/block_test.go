package block

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"littletable/internal/ltval"
	"littletable/internal/schema"
)

func testSchema(t testing.TB) *schema.Schema {
	t.Helper()
	return schema.MustNew([]schema.Column{
		{Name: "k", Type: ltval.Int64},
		{Name: "ts", Type: ltval.Timestamp},
		{Name: "v", Type: ltval.String},
	}, []string{"k", "ts"})
}

func row(k, ts int64, v string) schema.Row {
	return schema.Row{ltval.NewInt64(k), ltval.NewTimestamp(ts), ltval.NewString(v)}
}

func key(vals ...int64) []ltval.Value {
	out := make([]ltval.Value, len(vals))
	for i, v := range vals {
		if i == 1 {
			out[i] = ltval.NewTimestamp(v)
		} else {
			out[i] = ltval.NewInt64(v)
		}
	}
	return out
}

func buildBlock(t testing.TB, n int) *Block { return buildBlockMode(t, n, ModeAuto) }

func buildBlockMode(t testing.TB, n int, mode Mode) *Block {
	t.Helper()
	w := NewWriterMode(testSchema(t), mode)
	for i := 0; i < n; i++ {
		w.Append(row(int64(i/10), int64(i%10), "val"))
	}
	img, enc := w.Finish()
	b, err := Decode(testSchema(t), enc, img)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestEmptyBlock(t *testing.T) {
	w := NewWriter(testSchema(t))
	img, enc := w.Finish()
	b, err := Decode(testSchema(t), enc, img)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Errorf("Len = %d", b.Len())
	}
	if i, err := b.Search(key(0)); err != nil || i != 0 {
		t.Errorf("Search on empty = %d, %v", i, err)
	}
}

func TestRoundTrip(t *testing.T) {
	const n = 100
	for _, mode := range []Mode{ModeAuto, ModeLegacy} {
		b := buildBlockMode(t, n, mode)
		if b.Len() != n {
			t.Fatalf("mode %v: Len = %d, want %d", mode, b.Len(), n)
		}
		for i := 0; i < n; i++ {
			r, err := b.Row(i)
			if err != nil {
				t.Fatal(err)
			}
			if r[0].Int != int64(i/10) || r[1].Int != int64(i%10) || string(r[2].Bytes) != "val" {
				t.Fatalf("mode %v: row %d = %v", mode, i, r)
			}
		}
	}
}

// TestAutoChoosesColumnar pins that the regular time-series shape this
// package exists for actually triggers the columnar encoding and shrinks.
func TestAutoChoosesColumnar(t *testing.T) {
	w := NewWriter(testSchema(t))
	for i := 0; i < 500; i++ {
		w.Append(row(int64(i/10), int64(1_000_000*(i%10)), "val"))
	}
	img, enc := w.Finish()
	if enc != EncColumnar {
		t.Fatalf("encoding = %v, want columnar", enc)
	}
	st := w.Stats()
	if st.ColumnarBlocks != 1 || st.BytesAfter >= st.BytesBefore {
		t.Errorf("stats = %+v, want 1 columnar block that shrank", st)
	}
	if st.ColsDelta != 2 || st.ColsDict != 1 {
		t.Errorf("codec counts = %+v, want 2 delta + 1 dict", st)
	}
	if int64(len(img))*3 > st.BytesBefore {
		t.Errorf("columnar image %d bytes, legacy %d: want ≥3x reduction on this shape",
			len(img), st.BytesBefore)
	}
}

func TestRowOutOfRange(t *testing.T) {
	b := buildBlock(t, 5)
	if _, err := b.Row(-1); err == nil {
		t.Error("Row(-1) succeeded")
	}
	if _, err := b.Row(5); err == nil {
		t.Error("Row(len) succeeded")
	}
}

func TestSearchExact(t *testing.T) {
	b := buildBlock(t, 100) // keys (0..9, 0..9)
	i, err := b.Search(key(5, 3))
	if err != nil {
		t.Fatal(err)
	}
	if i != 53 {
		t.Errorf("Search(5,3) = %d, want 53", i)
	}
}

func TestSearchPrefix(t *testing.T) {
	b := buildBlock(t, 100)
	// First row with k=7.
	i, err := b.Search(key(7))
	if err != nil {
		t.Fatal(err)
	}
	if i != 70 {
		t.Errorf("Search(7) = %d, want 70", i)
	}
	// After the last row with k=7.
	j, err := b.SearchAfter(key(7))
	if err != nil {
		t.Fatal(err)
	}
	if j != 80 {
		t.Errorf("SearchAfter(7) = %d, want 80", j)
	}
}

func TestSearchMissing(t *testing.T) {
	b := buildBlock(t, 100)
	i, _ := b.Search(key(99))
	if i != b.Len() {
		t.Errorf("Search past end = %d, want %d", i, b.Len())
	}
	i, _ = b.Search(key(-1))
	if i != 0 {
		t.Errorf("Search before start = %d, want 0", i)
	}
}

func TestWriterReuse(t *testing.T) {
	sc := testSchema(t)
	for _, mode := range []Mode{ModeAuto, ModeLegacy} {
		w := NewWriterMode(sc, mode)
		w.Append(row(1, 1, "a"))
		first, enc1 := w.Finish()
		firstCopy := append([]byte(nil), first...)
		w.Append(row(2, 2, "b"))
		second, enc2 := w.Finish()
		b1, err := Decode(sc, enc1, firstCopy)
		if err != nil {
			t.Fatal(err)
		}
		b2, err := Decode(sc, enc2, second)
		if err != nil {
			t.Fatal(err)
		}
		r1, _ := b1.Row(0)
		r2, _ := b2.Row(0)
		if r1[0].Int != 1 || r2[0].Int != 2 {
			t.Errorf("mode %v: writer reuse corrupted blocks", mode)
		}
	}
}

// TestWriterReuseIsByteIdentical writes blocks whose codec choices change
// from one block to the next — the key's string column goes dictionary →
// LZF → LZF → plain and back, the counter delta → plain and back — through one
// long-lived Writer and through a fresh Writer per block. The images must
// be equal byte for byte and decode to their rows: a trial buffer reused
// while an earlier trial is still being compared would corrupt one.
func TestWriterReuseIsByteIdentical(t *testing.T) {
	sc := schema.MustNew([]schema.Column{
		{Name: "name", Type: ltval.String},
		{Name: "ts", Type: ltval.Timestamp},
		{Name: "n", Type: ltval.Int64},
	}, []string{"name", "ts"})
	rng := rand.New(rand.NewSource(7))
	const perBlock = 600
	phase := []struct {
		nameCodec, nCodec Codec
		name              func(i int) string
		n                 func(i int) int64
	}{
		{CodecDict, CodecDelta, func(i int) string { return string(rune('a' + 3*i/perBlock)) }, func(i int) int64 { return int64(i) }},
		// 250 one-byte names: the dictionary trial succeeds but loses, so
		// the plain trial it is compared with must still be intact.
		{CodecLZF, CodecDelta, func(i int) string { return string([]byte{byte(i * 250 / perBlock)}) }, func(i int) int64 { return int64(i) }},
		{CodecLZF, CodecPlain, func(i int) string { return fmt.Sprintf("device-%06d-gigabitethernet", i) }, func(int) int64 { return rng.Int63() }},
		{CodecPlain, CodecPlain, func(i int) string {
			b := make([]byte, 30)
			rng.Read(b)
			return string(append([]byte{byte(i >> 8), byte(i)}, b...))
		}, func(int) int64 { return rng.Int63() }},
	}
	long := NewWriter(sc)
	for blk := 0; blk < 2*len(phase); blk++ {
		ph := phase[blk%len(phase)]
		fresh := NewWriter(sc)
		var rows []schema.Row
		for i := 0; i < perBlock; i++ {
			r := schema.Row{ltval.NewString(ph.name(i)), ltval.NewTimestamp(int64(i) * 60_000_000), ltval.NewInt64(ph.n(i))}
			rows = append(rows, r)
			long.Append(r)
			fresh.Append(r)
		}
		img, enc := long.Finish()
		want, wantEnc := fresh.Finish()
		if enc != EncColumnar || wantEnc != EncColumnar {
			t.Fatalf("block %d: encodings %v / %v, want columnar", blk, enc, wantEnc)
		}
		if !bytes.Equal(img, want) {
			t.Fatalf("block %d: long-lived writer's image differs from a fresh writer's", blk)
		}
		if got := columnCodecs(t, img); got[0] != ph.nameCodec || got[2] != ph.nCodec {
			t.Fatalf("block %d: codecs %v, want name %v and n %v", blk, got, ph.nameCodec, ph.nCodec)
		}
		b, err := Decode(sc, enc, img)
		if err != nil {
			t.Fatalf("block %d: %v", blk, err)
		}
		for i, r := range rows {
			got, err := b.Row(i)
			if err != nil || !sameCells(got, r) {
				t.Fatalf("block %d row %d: got %v (%v), want %v", blk, i, got, err, r)
			}
		}
	}
}

// columnCodecs reads the per-column codec ids from a columnar image's
// header: version, CRC, row count, column count, then one id per column.
func columnCodecs(t *testing.T, img []byte) []Codec {
	t.Helper()
	_, w := uvarint(img[5:])
	ncols, w2 := uvarint(img[5+w:])
	if w <= 0 || w2 <= 0 {
		t.Fatal("bad columnar header")
	}
	var out []Codec
	for _, c := range img[5+w+w2:][:ncols] {
		out = append(out, Codec(c))
	}
	return out
}

func TestSizeBytesTracksFinish(t *testing.T) {
	w := NewWriterMode(testSchema(t), ModeLegacy)
	for i := 0; i < 50; i++ {
		w.Append(row(int64(i), 0, "x"))
	}
	want := w.SizeBytes()
	img, enc := w.Finish()
	if enc != EncLegacy {
		t.Fatalf("legacy writer produced %v", enc)
	}
	if len(img) != want {
		t.Errorf("SizeBytes = %d, Finish produced %d", want, len(img))
	}
}

func TestParseCorrupt(t *testing.T) {
	sc := testSchema(t)
	cases := [][]byte{
		nil,
		{1},
		{0xff, 0xff, 0xff, 0xff},             // absurd count
		{0, 0, 0, 0, 8, 0, 0, 0, 1, 0, 0, 0}, // offset beyond directory
	}
	for i, data := range cases {
		if _, err := Parse(sc, data); err == nil {
			t.Errorf("case %d: corrupt block accepted", i)
		}
	}
}

func TestParseOffsetsOutOfOrder(t *testing.T) {
	sc := testSchema(t)
	w := NewWriterMode(sc, ModeLegacy)
	w.Append(row(1, 1, "a"))
	w.Append(row(2, 2, "b"))
	img, _ := w.Finish()
	// Swap the two directory entries.
	dir := len(img) - 4 - 8
	for i := 0; i < 4; i++ {
		img[dir+i], img[dir+4+i] = img[dir+4+i], img[dir+i]
	}
	if _, err := Parse(sc, img); err == nil {
		t.Error("out-of-order offsets accepted")
	}
}

func BenchmarkBlockSearch(b *testing.B) {
	blk := buildBlock(b, 500)
	k := key(5, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := blk.Search(k); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBlockScan(b *testing.B) {
	blk := buildBlock(b, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < blk.Len(); j++ {
			if _, err := blk.Row(j); err != nil {
				b.Fatal(err)
			}
		}
	}
}
