package tablet

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"littletable/internal/ltval"
	"littletable/internal/schema"
)

func testSchema(t testing.TB) *schema.Schema {
	t.Helper()
	return schema.MustNew([]schema.Column{
		{Name: "network", Type: ltval.Int64},
		{Name: "device", Type: ltval.Int64},
		{Name: "ts", Type: ltval.Timestamp},
		{Name: "payload", Type: ltval.Blob},
	}, []string{"network", "device", "ts"})
}

func row(n, d, ts int64, payload []byte) schema.Row {
	return schema.Row{ltval.NewInt64(n), ltval.NewInt64(d), ltval.NewTimestamp(ts), ltval.NewBlob(payload)}
}

func key(vals ...int64) []ltval.Value {
	out := make([]ltval.Value, len(vals))
	for i, v := range vals {
		if i == 2 {
			out[i] = ltval.NewTimestamp(v)
		} else {
			out[i] = ltval.NewInt64(v)
		}
	}
	return out
}

// writeTablet writes rows (which must already be in key order) and opens
// the result.
func writeTablet(t testing.TB, dir string, opts WriterOptions, rows []schema.Row) *Tablet {
	t.Helper()
	path := filepath.Join(dir, "t.tab")
	w, err := Create(path, testSchema(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	info, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	if info.RowCount != int64(len(rows)) {
		t.Fatalf("Info.RowCount = %d, want %d", info.RowCount, len(rows))
	}
	tab, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tab.Close() })
	return tab
}

func seqRows(n int) []schema.Row {
	rows := make([]schema.Row, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, row(int64(i/100), int64((i/10)%10), int64(i%10)*1000, []byte(fmt.Sprintf("payload-%06d", i))))
	}
	return rows
}

func TestWriteReadRoundTrip(t *testing.T) {
	rows := seqRows(5000)
	tab := writeTablet(t, t.TempDir(), WriterOptions{}, rows)
	if tab.RowCount() != 5000 {
		t.Fatalf("RowCount = %d", tab.RowCount())
	}
	lo, hi := tab.Timespan()
	if lo != 0 || hi != 9000 {
		t.Errorf("Timespan = [%d, %d]", lo, hi)
	}
	c := tab.Cursor(true)
	i := 0
	for c.Next() {
		r := c.Row()
		want := rows[i]
		for j := range want {
			if !r[j].Equal(want[j]) {
				t.Fatalf("row %d col %d: got %v, want %v", i, j, r[j], want[j])
			}
		}
		i++
	}
	if c.Err() != nil {
		t.Fatal(c.Err())
	}
	if i != 5000 {
		t.Fatalf("cursor returned %d rows", i)
	}
}

func TestDescendingScan(t *testing.T) {
	rows := seqRows(3000)
	tab := writeTablet(t, t.TempDir(), WriterOptions{}, rows)
	c := tab.Cursor(false)
	i := len(rows) - 1
	for c.Next() {
		if tab.Schema().CompareKeys(c.Row(), rows[i]) != 0 {
			t.Fatalf("descending row %d mismatch", i)
		}
		i--
	}
	if i != -1 {
		t.Fatalf("descending cursor stopped at %d", i)
	}
}

func TestMultiBlock(t *testing.T) {
	// Small blocks force many of them.
	rows := seqRows(2000)
	tab := writeTablet(t, t.TempDir(), WriterOptions{BlockSize: 1024}, rows)
	if tab.BlockCount() < 10 {
		t.Fatalf("BlockCount = %d, want many", tab.BlockCount())
	}
	c := tab.Cursor(true)
	n := 0
	for c.Next() {
		n++
	}
	if n != 2000 {
		t.Fatalf("scanned %d rows across blocks", n)
	}
}

func TestSeekAscending(t *testing.T) {
	rows := seqRows(2000)
	tab := writeTablet(t, t.TempDir(), WriterOptions{BlockSize: 512}, rows)
	// Exact key: row 1234 has (12, 3, 4000).
	c, err := tab.Seek(key(12, 3, 4000), true)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Next() {
		t.Fatal("seek found nothing")
	}
	r := c.Row()
	if r[0].Int != 12 || r[1].Int != 3 || r[2].Int != 4000 {
		t.Fatalf("seek landed on (%d,%d,%d)", r[0].Int, r[1].Int, r[2].Int)
	}
	// Prefix: first row of network 7.
	c, err = tab.Seek(key(7), true)
	if err != nil {
		t.Fatal(err)
	}
	c.Next()
	r = c.Row()
	if r[0].Int != 7 || r[1].Int != 0 || r[2].Int != 0 {
		t.Fatalf("prefix seek landed on (%d,%d,%d)", r[0].Int, r[1].Int, r[2].Int)
	}
	// Past the end.
	c, err = tab.Seek(key(100), true)
	if err != nil {
		t.Fatal(err)
	}
	if c.Next() {
		t.Error("seek past end returned rows")
	}
}

func TestSeekDescending(t *testing.T) {
	rows := seqRows(2000)
	tab := writeTablet(t, t.TempDir(), WriterOptions{BlockSize: 512}, rows)
	// Last row <= (12, 3, 4500) is (12, 3, 4000).
	c, err := tab.Seek(key(12, 3, 4500), false)
	if err != nil {
		t.Fatal(err)
	}
	c.Next()
	r := c.Row()
	if r[0].Int != 12 || r[1].Int != 3 || r[2].Int != 4000 {
		t.Fatalf("descending seek landed on (%d,%d,%d)", r[0].Int, r[1].Int, r[2].Int)
	}
	// Prefix: last row of network 7 is (7, 9, 9000).
	c, err = tab.Seek(key(7), false)
	if err != nil {
		t.Fatal(err)
	}
	c.Next()
	r = c.Row()
	if r[0].Int != 7 || r[1].Int != 9 || r[2].Int != 9000 {
		t.Fatalf("descending prefix seek landed on (%d,%d,%d)", r[0].Int, r[1].Int, r[2].Int)
	}
	// Before the beginning.
	c, err = tab.Seek(key(-1), false)
	if err != nil {
		t.Fatal(err)
	}
	if c.Next() {
		t.Error("descending seek before start returned rows")
	}
	// After the end: should land on the very last row.
	c, err = tab.Seek(key(100), false)
	if err != nil {
		t.Fatal(err)
	}
	c.Next()
	if r := c.Row(); r[0].Int != 19 || r[1].Int != 9 || r[2].Int != 9000 {
		t.Fatalf("descending seek after end landed on (%d,%d,%d)", r[0].Int, r[1].Int, r[2].Int)
	}
}

func TestSeekRandomizedAgainstLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var rows []schema.Row
	seen := map[[3]int64]bool{}
	for len(rows) < 600 {
		k := [3]int64{rng.Int63n(8), rng.Int63n(12), rng.Int63n(50) * 100}
		if seen[k] {
			continue
		}
		seen[k] = true
		rows = append(rows, row(k[0], k[1], k[2], nil))
	}
	sc := testSchema(t)
	sortRows(sc, rows)
	tab := writeTablet(t, t.TempDir(), WriterOptions{BlockSize: 256}, rows)
	for trial := 0; trial < 300; trial++ {
		probe := key(rng.Int63n(9), rng.Int63n(13), rng.Int63n(5100))
		// Linear reference for ascending.
		wantIdx := -1
		for i, r := range rows {
			if sc.CompareRowToKey(r, probe) >= 0 {
				wantIdx = i
				break
			}
		}
		c, err := tab.Seek(probe, true)
		if err != nil {
			t.Fatal(err)
		}
		if wantIdx == -1 {
			if c.Next() {
				t.Fatalf("trial %d: expected exhausted cursor", trial)
			}
		} else if !c.Next() || sc.CompareKeys(c.Row(), rows[wantIdx]) != 0 {
			t.Fatalf("trial %d: ascending seek mismatch", trial)
		}
		// Linear reference for descending.
		wantIdx = -1
		for i := len(rows) - 1; i >= 0; i-- {
			if sc.CompareRowToKey(rows[i], probe) <= 0 {
				wantIdx = i
				break
			}
		}
		c, err = tab.Seek(probe, false)
		if err != nil {
			t.Fatal(err)
		}
		if wantIdx == -1 {
			if c.Next() {
				t.Fatalf("trial %d: expected exhausted descending cursor", trial)
			}
		} else if !c.Next() || sc.CompareKeys(c.Row(), rows[wantIdx]) != 0 {
			t.Fatalf("trial %d: descending seek mismatch", trial)
		}
	}
}

func sortRows(sc *schema.Schema, rows []schema.Row) {
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0 && sc.CompareKeys(rows[j-1], rows[j]) > 0; j-- {
			rows[j-1], rows[j] = rows[j], rows[j-1]
		}
	}
}

func TestOutOfOrderRejected(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(filepath.Join(dir, "x.tab"), testSchema(t), WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	if err := w.Append(row(2, 0, 0, nil)); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(row(1, 0, 0, nil)); err == nil {
		t.Error("out-of-order append accepted")
	}
	if err := w.Append(row(2, 0, 0, nil)); err == nil {
		t.Error("duplicate key append accepted")
	}
}

func TestEmptyTablet(t *testing.T) {
	tab := writeTablet(t, t.TempDir(), WriterOptions{}, nil)
	if tab.RowCount() != 0 || tab.BlockCount() != 0 {
		t.Error("empty tablet has rows")
	}
	if c := tab.Cursor(true); c.Next() {
		t.Error("empty tablet cursor yields rows")
	}
	c, err := tab.Seek(key(1), true)
	if err != nil {
		t.Fatal(err)
	}
	if c.Next() {
		t.Error("seek on empty tablet yields rows")
	}
	lk, err := tab.LastKey()
	if err != nil || lk != nil {
		t.Error("empty tablet has a last key")
	}
}

func TestBloomFilter(t *testing.T) {
	rows := seqRows(1000)
	tab := writeTablet(t, t.TempDir(), WriterOptions{}, rows)
	if tab.Filter() == nil {
		t.Fatal("no bloom filter")
	}
	sc := tab.Schema()
	for _, r := range rows[:100] {
		if !tab.MayContainKey(sc.AppendKey(nil, r)) {
			t.Fatal("bloom false negative")
		}
	}
	miss := 0
	for i := 0; i < 1000; i++ {
		probe := sc.AppendKey(nil, row(999, int64(i), 1, nil))
		if !tab.MayContainKey(probe) {
			miss++
		}
	}
	if miss < 950 {
		t.Errorf("bloom filtered only %d/1000 absent keys", miss)
	}
}

func TestNoBloomOption(t *testing.T) {
	tab := writeTablet(t, t.TempDir(), WriterOptions{DisableBloom: true}, seqRows(10))
	if tab.Filter() != nil {
		t.Error("filter present despite DisableBloom")
	}
	if !tab.MayContainKey([]byte("anything")) {
		t.Error("MayContainKey must be conservative without a filter")
	}
}

func TestLastKey(t *testing.T) {
	tab := writeTablet(t, t.TempDir(), WriterOptions{}, seqRows(500))
	lk, err := tab.LastKey()
	if err != nil {
		t.Fatal(err)
	}
	if lk[0].Int != 4 || lk[1].Int != 9 || lk[2].Int != 9000 {
		t.Fatalf("LastKey = %v", lk)
	}
}

func TestCompressionShrinksFile(t *testing.T) {
	dir := t.TempDir()
	rows := make([]schema.Row, 2000)
	for i := range rows {
		rows[i] = row(1, int64(i), 0, []byte("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"))
	}
	wc, err := Create(filepath.Join(dir, "c.tab"), testSchema(t), WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		wc.Append(r)
	}
	ic, err := wc.Close()
	if err != nil {
		t.Fatal(err)
	}
	wu, err := Create(filepath.Join(dir, "u.tab"), testSchema(t), WriterOptions{DisableCompression: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		wu.Append(r)
	}
	iu, err := wu.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ic.Bytes >= iu.Bytes {
		t.Errorf("compressed %d >= uncompressed %d", ic.Bytes, iu.Bytes)
	}
	// Both must read back identically.
	for _, p := range []string{ic.Path, iu.Path} {
		tab, err := Open(p)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		c := tab.Cursor(true)
		for c.Next() {
			n++
		}
		tab.Close()
		if n != 2000 {
			t.Fatalf("%s: %d rows", p, n)
		}
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "garbage")
	if err := os.WriteFile(p, []byte("this is not a tablet file at all......."), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(p); err == nil {
		t.Error("garbage file opened as tablet")
	}
	if err := os.WriteFile(p, []byte{1, 2}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(p); err == nil {
		t.Error("tiny file opened as tablet")
	}
	if _, err := Open(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing file opened")
	}
}

func TestOpenDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.tab")
	w, err := Create(path, testSchema(t), WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range seqRows(1000) {
		w.Append(r)
	}
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle of the first block's payload.
	mut := append([]byte{}, data...)
	mut[recordHeaderSize+10] ^= 0xff
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	tab, err := Open(path)
	if err != nil {
		t.Fatal(err) // footer is intact
	}
	defer tab.Close()
	c := tab.Cursor(true)
	for c.Next() {
	}
	if c.Err() == nil {
		t.Error("corrupted block read without error")
	}
}

func TestCrashLeavesNoPartialTablet(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.tab")
	w, err := Create(path, testSchema(t), WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range seqRows(100) {
		w.Append(r)
	}
	// Abort simulates a crash before Close: the real file must not exist.
	if err := w.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("partial tablet visible at final path")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Errorf("%d leftover files after abort", len(ents))
	}
}

func TestUseAfterClose(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(filepath.Join(dir, "t.tab"), testSchema(t), WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w.Append(row(1, 1, 1, nil))
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(row(2, 2, 2, nil)); err != ErrClosed {
		t.Errorf("Append after close: %v", err)
	}
	if _, err := w.Close(); err != ErrClosed {
		t.Errorf("double close: %v", err)
	}
}

func TestCursorBlocksReadAccounting(t *testing.T) {
	rows := seqRows(2000)
	tab := writeTablet(t, t.TempDir(), WriterOptions{BlockSize: 1024}, rows)
	c, err := tab.Seek(key(10, 0, 0), true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10 && c.Next(); i++ {
	}
	if c.BlocksRead < 1 || c.BlocksRead > 2 {
		t.Errorf("BlocksRead = %d for a 10-row point read", c.BlocksRead)
	}
	full := tab.Cursor(true)
	for full.Next() {
	}
	if full.BlocksRead != tab.BlockCount() {
		t.Errorf("full scan read %d blocks of %d", full.BlocksRead, tab.BlockCount())
	}
}

// BenchmarkTabletWrite streams rows into one tablet through a single
// reused row with the row-count hint core passes, so B/op is what the
// writer itself allocates per row (including Close's footer, amortised).
func BenchmarkTabletWrite(b *testing.B) {
	dir := b.TempDir()
	sc := testSchema(b)
	r := row(0, 0, 0, make([]byte, 100))
	b.ReportAllocs()
	b.SetBytes(128)
	b.ResetTimer()
	w, err := Create(filepath.Join(dir, "bench.tab"), sc, WriterOptions{RowsHint: b.N})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		r[2] = ltval.NewTimestamp(int64(i))
		if err := w.Append(r); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := w.Close(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkTabletScan(b *testing.B) {
	dir := b.TempDir()
	tab := writeTablet(b, dir, WriterOptions{}, seqRows(100000))
	b.SetBytes(int64(tab.SizeBytes() / tab.RowCount()))
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		if n == 0 {
			c := tab.Cursor(true)
			for c.Next() {
				n++
				if n >= b.N-i {
					break
				}
			}
		}
		n--
	}
}
