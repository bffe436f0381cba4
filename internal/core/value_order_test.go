package core

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"littletable/internal/clock"
	"littletable/internal/ltval"
	"littletable/internal/schema"
)

// doubleSchema keys a table by a double, so that the key order is the
// value order of doubles: NaN payloads, ±0 and ±Inf all reach the
// memtable, the tablets, the merger and the uniqueness check.
func doubleSchema() *schema.Schema {
	return schema.MustNew([]schema.Column{
		{Name: "x", Type: ltval.Double},
		{Name: "ts", Type: ltval.Timestamp},
		{Name: "v", Type: ltval.Int64},
	}, []string{"x", "ts"})
}

func doubleRow(x float64, ts, v int64) schema.Row {
	return schema.Row{ltval.NewDouble(x), ltval.NewTimestamp(ts), ltval.NewInt64(v)}
}

func newDoubleTable(t testing.TB, opts Options) *testTable {
	t.Helper()
	return newTestTableOf(t, doubleSchema(), opts)
}

// xBits renders the rows' (x bits, v) pairs, so that a NaN payload or the
// sign of a zero shows in a failure.
func xBits(rows []schema.Row) [][2]uint64 {
	out := make([][2]uint64, len(rows))
	for i, row := range rows {
		out[i] = [2]uint64{math.Float64bits(row[0].Float), uint64(row[2].Int)}
	}
	return out
}

// insertEach inserts one row per x at one timestamp, one Insert each, and
// returns each Insert's error.
func insertEach(tt *testTable, ts int64, xs ...float64) []error {
	errs := make([]error, len(xs))
	for i, x := range xs {
		errs[i] = tt.Insert([]schema.Row{doubleRow(x, ts, int64(i))})
	}
	return errs
}

// TestDoubleKeyNaNIsOneKey: a NaN key is one key, equal only to a NaN
// with the same bits, and every number is another key. When Compare
// called NaN equal to every number, both NaNs below were rejected as
// duplicates, and a NaN inserted first rejected every later row.
func TestDoubleKeyNaNIsOneKey(t *testing.T) {
	nan := math.NaN()
	t.Run("nan-among-numbers", func(t *testing.T) {
		tt := newDoubleTable(t, Options{})
		ts := tt.clk.Now()
		errs := insertEach(tt, ts, 3, nan, 1, 2, nan, 0.5, 4)
		for i, err := range errs {
			switch {
			case i == 4 && !errors.Is(err, ErrDuplicateKey):
				t.Errorf("insert 4 (the second NaN): %v, want ErrDuplicateKey", err)
			case i != 4 && err != nil:
				t.Errorf("insert %d: %v", i, err)
			}
		}
		got := queryBox(t, tt.Table, NewQuery())
		want := [][2]uint64{
			{math.Float64bits(0.5), 5}, {math.Float64bits(1), 2}, {math.Float64bits(2), 3},
			{math.Float64bits(3), 0}, {math.Float64bits(4), 6}, {math.Float64bits(nan), 1},
		}
		if g := xBits(got); !slices.Equal(g, want) {
			t.Errorf("Query = %x, want %x", g, want)
		}
		q := NewQuery()
		q.Lower, q.Upper = []ltval.Value{ltval.NewDouble(2)}, []ltval.Value{ltval.NewDouble(2)}
		if got := queryBox(t, tt.Table, q); len(got) != 1 || got[0][0].Float != 2 {
			t.Errorf("Query [2, 2] = %v, want the one row at 2", got)
		}
	})
	t.Run("nan-first", func(t *testing.T) {
		tt := newDoubleTable(t, Options{})
		ts := tt.clk.Now()
		xs := []float64{nan, 3, 1, 2, 0.5, 4, math.Copysign(0, -1), 0}
		for i, err := range insertEach(tt, ts, xs...) {
			if err != nil {
				t.Errorf("insert %d (%v): %v", i, xs[i], err)
			}
		}
		if got := queryBox(t, tt.Table, NewQuery()); len(got) != len(xs) {
			t.Errorf("Query returned %d rows, want %d: %v", len(got), len(xs), got)
		}
	})
}

// TestDoubleKeySignedZerosAcrossFlush: −0 and +0 are two keys. When
// Compare called them equal, −0 inserted after +0 reached a tablet passed
// the Bloom filter (which hashes the bits) and went in, and the merger
// then kept one of the two "equal" keys: Query lost the acked +0 row.
func TestDoubleKeySignedZerosAcrossFlush(t *testing.T) {
	tt := newDoubleTable(t, Options{})
	ts := tt.clk.Now()
	mustInsert(t, tt.Table, doubleRow(0, ts, 1), doubleRow(5, ts, 9))
	if err := tt.FlushAll(); err != nil {
		t.Fatal(err)
	}
	mustInsert(t, tt.Table, doubleRow(math.Copysign(0, -1), ts, 2))
	got := xBits(queryBox(t, tt.Table, NewQuery()))
	want := [][2]uint64{{1 << 63, 2}, {0, 1}, {math.Float64bits(5), 9}}
	if !slices.Equal(got, want) {
		t.Errorf("Query = %x, want %x", got, want)
	}
}

// TestDoubleKeyNaNPayloadsAcrossFlush: NaNs with different payloads are
// different keys, and a NaN does not hide a number. When Compare called
// NaN equal to every number, 3 was rejected as a duplicate of the first
// NaN, and the second NaN, inserted after a flush, hid the first.
func TestDoubleKeyNaNPayloadsAcrossFlush(t *testing.T) {
	tt := newDoubleTable(t, Options{})
	ts := tt.clk.Now()
	nan1, nan2 := uint64(0x7ff8000000000001), uint64(0x7ff8000000000002)
	for i, x := range []float64{math.Float64frombits(nan1), 3} {
		if err := tt.Insert([]schema.Row{doubleRow(x, ts, int64(i+1))}); err != nil {
			t.Errorf("insert %v: %v", x, err)
		}
	}
	if err := tt.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := tt.Insert([]schema.Row{doubleRow(math.Float64frombits(nan2), ts, 3)}); err != nil {
		t.Errorf("insert NaN %#x: %v", nan2, err)
	}
	got := xBits(queryBox(t, tt.Table, NewQuery()))
	want := [][2]uint64{{math.Float64bits(3), 2}, {nan1, 1}, {nan2, 3}}
	if !slices.Equal(got, want) {
		t.Errorf("Query = %x, want %x", got, want)
	}
}

// TestPreTotalOrderTabletQuarantined opens a table written at commit
// 7b4b540, when Compare called NaN equal to every number: its one tablet
// holds keys (1, ts+0), (NaN, ts+1), (0.5, ts+2), (3, ts+3) in that
// order, which the total order calls out of order. Served as is, a scan
// returns them unsorted and a key search misses rows; VerifyOnOpen must
// quarantine the tablet instead.
func TestPreTotalOrderTabletQuarantined(t *testing.T) {
	root := t.TempDir()
	src := filepath.Join("testdata", "nan_keys", "nan")
	if err := os.MkdirAll(filepath.Join(root, "nan"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"desc.json", "000000000001.tab"} {
		b, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, "nan", name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	tab, err := OpenTable(root, "nan", Options{Clock: clock.NewFake(testStart), Logf: quietLogf, VerifyOnOpen: true})
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	if got := tab.Stats().TabletsQuarantined.Load(); got != 1 {
		t.Errorf("VerifyOnOpen quarantined %d tablets, want 1", got)
	}
	rows, err := tab.QueryAll(NewQuery())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Errorf("out-of-order tablet served %d rows: %v", len(rows), xBits(rows))
	}
}
