package block

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"littletable/internal/ltval"
	"littletable/internal/race"
	"littletable/internal/schema"
)

// wideSchema has a column of every type, and a string in the key so key
// comparisons exercise byte cells.
func wideSchema() *schema.Schema {
	return schema.MustNew([]schema.Column{
		{Name: "net", Type: ltval.Int64},
		{Name: "name", Type: ltval.String},
		{Name: "ts", Type: ltval.Timestamp},
		{Name: "i32", Type: ltval.Int32},
		{Name: "f", Type: ltval.Double},
		{Name: "blob", Type: ltval.Blob},
	}, []string{"net", "name", "ts"})
}

// wideRows builds n key-ordered rows of wideSchema. With smooth set the
// columns favour delta, XOR, dictionary and lzf; without it they are
// random enough that every column falls back to plain.
func wideRows(n int, smooth bool, seed int64) []schema.Row {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]schema.Row, n)
	for i := range rows {
		r := schema.Row{
			ltval.NewInt64(int64(i / 50)),
			ltval.NewString(fmt.Sprintf("dev-%d", i/10%5)),
			ltval.NewTimestamp(1_700_000_000_000_000 + int64(i)*60_000_000),
			ltval.NewInt32(int32(i)),
			ltval.NewDouble(20 + float64(i%7)/4),
			ltval.NewBlob([]byte(fmt.Sprintf("interface GigabitEthernet0/%d is up, line protocol is up", i))),
		}
		if !smooth {
			name := make([]byte, 3+rng.Intn(4))
			rng.Read(name)
			blob := make([]byte, rng.Intn(6))
			rng.Read(blob)
			r = schema.Row{
				ltval.NewInt64(rng.Int63()),
				ltval.NewString(string(name)),
				ltval.NewTimestamp(rng.Int63()),
				ltval.NewInt32(int32(rng.Uint32())),
				ltval.NewDouble(math.Float64frombits(rng.Uint64())),
				ltval.NewBlob(blob),
			}
		}
		rows[i] = r
	}
	sc := wideSchema()
	sort.Slice(rows, func(i, j int) bool { return sc.CompareKeys(rows[i], rows[j]) < 0 })
	return rows
}

// bothImages encodes rows twice: the legacy row-major image, and the
// columnar image whether or not it is the smaller one (the writer would
// only emit it when it wins, which tiny blocks never do).
func bothImages(sc *schema.Schema, rows []schema.Row) (legacy, columnar []byte, st EncodeStats) {
	lw := NewWriterMode(sc, ModeLegacy)
	cw := NewWriter(sc)
	for _, r := range rows {
		lw.Append(r)
		cw.Append(r)
	}
	img, _ := lw.Finish()
	legacy = append([]byte(nil), img...)
	columnar = encodeColumnar(nil, sc, cw.cols, len(rows), &st, new(encScratch))
	return legacy, columnar, st
}

// sameCells compares bit for bit: NaN payloads and the sign of zero count.
func sameCells(a, b schema.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Type != b[i].Type || a[i].Int != b[i].Int ||
			math.Float64bits(a[i].Float) != math.Float64bits(b[i].Float) ||
			!bytes.Equal(a[i].Bytes, b[i].Bytes) {
			return false
		}
	}
	return true
}

// checkTypedEqualsLegacy is the differential check: the typed block must
// yield, through Row and through RowInto on one reused buffer, exactly the
// rows the legacy image of the same input decodes to, and both must place
// every probe key where a linear scan does.
func checkTypedEqualsLegacy(t *testing.T, sc *schema.Schema, rows []schema.Row) EncodeStats {
	t.Helper()
	legacyImg, colImg, st := bothImages(sc, rows)
	legacy, err := Decode(sc, EncLegacy, legacyImg)
	if err != nil {
		t.Fatalf("legacy image rejected: %v", err)
	}
	typed, err := Decode(sc, EncColumnar, colImg)
	if err != nil {
		t.Fatalf("columnar image rejected: %v", err)
	}
	if typed.Len() != len(rows) || legacy.Len() != len(rows) {
		t.Fatalf("Len = %d typed, %d legacy, want %d", typed.Len(), legacy.Len(), len(rows))
	}
	var bufT, bufL schema.Row
	for i := range rows {
		want, err := legacy.Row(i)
		if err != nil {
			t.Fatal(err)
		}
		if !sameCells(want, rows[i]) {
			t.Fatalf("row %d: legacy decode differs from the input", i)
		}
		got, err := typed.Row(i)
		if err != nil || !sameCells(got, want) {
			t.Fatalf("row %d: typed Row = %v (%v), want %v", i, got, err, want)
		}
		if bufT, err = typed.RowInto(bufT, i); err != nil || !sameCells(bufT, want) {
			t.Fatalf("row %d: typed RowInto = %v (%v), want %v", i, bufT, err, want)
		}
		if bufL, err = legacy.RowInto(bufL, i); err != nil || !sameCells(bufL, want) {
			t.Fatalf("row %d: legacy RowInto = %v (%v), want %v", i, bufL, err, want)
		}
	}
	// Probe with every row's key at every prefix length, plus keys that
	// sort before, between and after the rows.
	var probes [][]ltval.Value
	for _, r := range rows {
		k := sc.KeyOf(r)
		for n := 1; n <= len(k); n++ {
			probes = append(probes, k[:n])
		}
		past := append([]ltval.Value(nil), k...)
		past[len(past)-1].Int++
		probes = append(probes, past)
	}
	probes = append(probes, []ltval.Value{ltval.NewInt64(math.MinInt64)}, []ltval.Value{ltval.NewInt64(math.MaxInt64)})
	for _, k := range probes {
		wantGE := sort.Search(len(rows), func(i int) bool { return sc.CompareRowToKey(rows[i], k) >= 0 })
		wantGT := sort.Search(len(rows), func(i int) bool { return sc.CompareRowToKey(rows[i], k) > 0 })
		for name, b := range map[string]*Block{"typed": typed, "legacy": legacy} {
			if got, err := b.Search(k); err != nil || got != wantGE {
				t.Fatalf("%s Search(%v) = %d (%v), want %d", name, k, got, err, wantGE)
			}
			if got, err := b.SearchAfter(k); err != nil || got != wantGT {
				t.Fatalf("%s SearchAfter(%v) = %d (%v), want %d", name, k, got, err, wantGT)
			}
		}
	}
	return st
}

func TestTypedDecodeEqualsLegacy(t *testing.T) {
	sc := wideSchema()
	t.Run("every codec", func(t *testing.T) {
		st := checkTypedEqualsLegacy(t, sc, wideRows(400, true, 1))
		if st.ColsDelta != 3 || st.ColsXOR != 1 || st.ColsDict != 2 {
			t.Errorf("smooth rows chose %+v, want 3 delta, 1 xor, 2 dict/lzf columns", st)
		}
	})
	t.Run("every plain fallback", func(t *testing.T) {
		st := checkTypedEqualsLegacy(t, sc, wideRows(400, false, 2))
		if st.ColsPlain != int64(len(sc.Columns)) {
			t.Errorf("random rows chose %+v, want every column plain", st)
		}
	})
	t.Run("one row", func(t *testing.T) { checkTypedEqualsLegacy(t, sc, wideRows(1, true, 3)) })
	t.Run("no rows", func(t *testing.T) { checkTypedEqualsLegacy(t, sc, nil) })
	t.Run("float specials and empty cells", func(t *testing.T) {
		rows := wideRows(12, true, 4)
		specials := []float64{
			0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
			math.Float64frombits(0x7ff8_0000_dead_beef), math.Float64frombits(0xfff0_0000_0000_0001),
			math.SmallestNonzeroFloat64, math.MaxFloat64, 1.5, 1.5, -1.5,
		}
		for i := range rows {
			rows[i][4] = ltval.NewDouble(specials[i])
			if i%2 == 0 {
				rows[i][5] = ltval.NewBlob([]byte{})
			}
		}
		rows[0][1] = ltval.NewString("") // sorts first within net 0
		checkTypedEqualsLegacy(t, sc, rows)
	})
	t.Run("int extremes", func(t *testing.T) {
		rows := wideRows(6, true, 5)
		for i, v := range []int32{math.MinInt32, -1, 0, 1, math.MaxInt32, math.MinInt32} {
			rows[i][3] = ltval.NewInt32(v)
		}
		checkTypedEqualsLegacy(t, sc, rows)
	})
}

// TestWriterPicksEachCodec pins which codec the chooser picks for the
// column shapes the differential test relies on, through decodeColumn.
func TestWriterPicksEachCodec(t *testing.T) {
	long := make([]string, 300)
	for i := range long {
		long[i] = fmt.Sprintf("interface GigabitEthernet0/%d is up, line protocol is up", i)
	}
	for _, tc := range []struct {
		cells []string
		want  Codec
	}{
		{[]string{"wan1", "wan2", "wan1", "", "wan1"}, CodecDict},
		{long, CodecLZF},
		{[]string{"a", "b", "c"}, CodecPlain},
	} {
		c := bytesAcc(tc.cells...)
		enc, codec := encodeBytesColumn(c, new(encScratch))
		if codec != tc.want {
			t.Errorf("%d cells like %q: codec %d, want %d", len(tc.cells), tc.cells[0], codec, tc.want)
		}
		col, err := decodeColumn(ltval.Blob, codec, enc, len(tc.cells))
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range tc.cells {
			if got := col.value(i); got.Type != ltval.Blob || string(got.Bytes) != want {
				t.Fatalf("codec %d cell %d = %v, want %q", codec, i, got, want)
			}
		}
	}
}

// benchRows is the end-to-end benchmark's six-column usage-table shape
// (benchmark/gen.go): one block's worth of key-ordered rows.
func benchRows(n int) (*schema.Schema, []schema.Row) {
	sc := schema.MustNew([]schema.Column{
		{Name: "network", Type: ltval.Int64},
		{Name: "device", Type: ltval.Int64},
		{Name: "ts", Type: ltval.Timestamp},
		{Name: "rate", Type: ltval.Double},
		{Name: "bytes", Type: ltval.Int64},
		{Name: "tag", Type: ltval.String},
	}, []string{"network", "device", "ts"})
	tags := []string{"corp", "guest", "iot-sensors", "voice", "lab-2.4ghz", "warehouse-scanners", "pos", "mgmt"}
	rng := rand.New(rand.NewSource(1))
	rows := make([]schema.Row, n)
	for i := range rows {
		rows[i] = schema.Row{
			ltval.NewInt64(int64(i / 240)),
			ltval.NewInt64(int64(i / 24 % 10)),
			ltval.NewTimestamp(1_700_010_000_000_000 + int64(i%24)*500_000_000),
			ltval.NewDouble(float64(1000+rng.Intn(9000)) / 100),
			ltval.NewInt64(rng.Int63n(1_000_000)),
			ltval.NewString(tags[rng.Intn(len(tags))]),
		}
	}
	return sc, rows
}

func benchImage(tb testing.TB, n int) (*schema.Schema, []byte) {
	sc, rows := benchRows(n)
	w := NewWriter(sc)
	for _, r := range rows {
		w.Append(r)
	}
	img, enc := w.Finish()
	if enc != EncColumnar {
		tb.Fatal("benchmark-shaped rows did not choose the columnar encoding")
	}
	return sc, append([]byte(nil), img...)
}

// TestDecodeAllocationBudget is the tier-1 guard on what a decoded block
// costs: the typed vectors of the benchmark's six-column schema are 48
// bytes a row (five numeric cells, one byte-cell span), so a block may
// allocate at most 80 — the boxed representation this replaced took 288.
func TestDecodeAllocationBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation sizes")
	}
	const n = 1200
	sc, img := benchImage(t, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const rounds = 20
	for i := 0; i < rounds; i++ {
		if _, err := Decode(sc, EncColumnar, img); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRow := float64(after.TotalAlloc-before.TotalAlloc) / (rounds * n)
	t.Logf("decode allocates %.1f B per block row (image: %.1f B per row)", perRow, float64(len(img))/n)
	if perRow > 80 {
		t.Errorf("decode allocates %.1f B per block row, budget 80", perRow)
	}
}

// BenchmarkBlockDecode is the inner loop of a cold scan: decode one
// benchmark-shaped block and visit every row through the reusing RowInto.
// B/op ÷ 1200 is bytes allocated per row.
func BenchmarkBlockDecode(b *testing.B) {
	const n = 1200
	sc, img := benchImage(b, n)
	b.ReportAllocs()
	b.SetBytes(int64(len(img)))
	var row schema.Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk, err := Decode(sc, EncColumnar, img)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < blk.Len(); j++ {
			if row, err = blk.RowInto(row, j); err != nil {
				b.Fatal(err)
			}
		}
	}
}
