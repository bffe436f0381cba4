package core

import (
	"errors"
	"fmt"
	"testing"

	"littletable/internal/clock"
	"littletable/internal/ltval"
	"littletable/internal/schema"
)

// Test scaffolding: the paper's running example table keyed by
// (network, device, ts).

var testStart = int64(1_782_018_420) * clock.Second // mid-day, mid-week

func usageSchema() *schema.Schema {
	return schema.MustNew([]schema.Column{
		{Name: "network", Type: ltval.Int64},
		{Name: "device", Type: ltval.Int64},
		{Name: "ts", Type: ltval.Timestamp},
		{Name: "rate", Type: ltval.Double},
		{Name: "seq", Type: ltval.Int64}, // insertion order, for durability tests
	}, []string{"network", "device", "ts"})
}

func usageRow(n, d, ts int64, rate float64, seq int64) schema.Row {
	return schema.Row{
		ltval.NewInt64(n), ltval.NewInt64(d), ltval.NewTimestamp(ts),
		ltval.NewDouble(rate), ltval.NewInt64(seq),
	}
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

type testTable struct {
	*Table
	clk *clock.Fake
	dir string
}

func newTestTable(t testing.TB, opts Options) *testTable {
	t.Helper()
	return newTestTableOf(t, usageSchema(), opts)
}

// newTestTableOf creates a table of schema sc in a temporary directory, on
// a fake clock that starts at testStart.
func newTestTableOf(t testing.TB, sc *schema.Schema, opts Options) *testTable {
	t.Helper()
	dir := t.TempDir()
	clk := clock.NewFake(testStart)
	opts.Clock = clk
	tab, err := CreateTable(dir, "usage", sc, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tab.Close() })
	return &testTable{Table: tab, clk: clk, dir: dir}
}

func mustInsert(t testing.TB, tab *Table, rows ...schema.Row) {
	t.Helper()
	if err := tab.Insert(rows); err != nil {
		t.Fatal(err)
	}
}

func queryBox(t testing.TB, tab *Table, q Query) []schema.Row {
	t.Helper()
	rows, err := tab.QueryAll(q)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestInsertAndQueryMemoryOnly(t *testing.T) {
	tt := newTestTable(t, Options{})
	now := tt.clk.Now()
	mustInsert(t, tt.Table,
		usageRow(1, 1, now, 1.0, 0),
		usageRow(1, 2, now, 2.0, 1),
		usageRow(2, 1, now, 3.0, 2),
	)
	rows := queryBox(t, tt.Table, NewQuery())
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Key-ordered.
	if rows[0][0].Int != 1 || rows[0][1].Int != 1 || rows[2][0].Int != 2 {
		t.Errorf("rows out of order: %v", rows)
	}
	if tt.DiskTabletCount() != 0 {
		t.Error("unexpected disk tablets")
	}
}

func TestQueryAfterFlush(t *testing.T) {
	tt := newTestTable(t, Options{})
	now := tt.clk.Now()
	for i := int64(0); i < 100; i++ {
		mustInsert(t, tt.Table, usageRow(i%4, i%10, now-i*clock.Minute, float64(i), i))
	}
	if err := tt.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if tt.DiskTabletCount() == 0 {
		t.Fatal("no disk tablets after FlushAll")
	}
	if tt.MemTabletCount() != 0 {
		t.Fatal("memtables remain after FlushAll")
	}
	rows := queryBox(t, tt.Table, NewQuery())
	if len(rows) != 100 {
		t.Fatalf("got %d rows after flush", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if tt.Schema().CompareKeys(rows[i-1], rows[i]) >= 0 {
			t.Fatal("rows not key-ordered after flush")
		}
	}
}

func TestQueryMergesMemoryAndDisk(t *testing.T) {
	tt := newTestTable(t, Options{})
	now := tt.clk.Now()
	mustInsert(t, tt.Table, usageRow(1, 1, now-clock.Minute, 1, 0))
	if err := tt.FlushAll(); err != nil {
		t.Fatal(err)
	}
	mustInsert(t, tt.Table, usageRow(1, 2, now, 2, 1)) // stays in memory
	rows := queryBox(t, tt.Table, NewQuery())
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[0][1].Int != 1 || rows[1][1].Int != 2 {
		t.Error("merge across memory and disk out of order")
	}
}

func TestBoundingBoxQuery(t *testing.T) {
	tt := newTestTable(t, Options{})
	now := tt.clk.Now()
	// 4 networks × 5 devices × 10 samples, one per minute.
	for n := int64(0); n < 4; n++ {
		for d := int64(0); d < 5; d++ {
			for s := int64(0); s < 10; s++ {
				mustInsert(t, tt.Table, usageRow(n, d, now-s*clock.Minute, float64(s), 0))
			}
		}
	}
	if err := tt.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Rectangle: network 2, all devices, last 5 minutes (6 samples each:
	// s=0..5 inclusive bounds).
	q := NewQuery()
	q.Lower = key(2)
	q.Upper = key(2)
	q.MinTs = now - 5*clock.Minute
	q.MaxTs = now
	rows := queryBox(t, tt.Table, q)
	if len(rows) != 5*6 {
		t.Fatalf("rectangle returned %d rows, want 30", len(rows))
	}
	for _, r := range rows {
		if r[0].Int != 2 {
			t.Fatal("row outside key bounds")
		}
		if ts := r[2].Int; ts < q.MinTs || ts > q.MaxTs {
			t.Fatal("row outside ts bounds")
		}
	}
	// Narrower: single device.
	q.Lower = key(2, 3)
	q.Upper = key(2, 3)
	rows = queryBox(t, tt.Table, q)
	if len(rows) != 6 {
		t.Fatalf("device rectangle returned %d rows, want 6", len(rows))
	}
}

func TestQueryExclusiveBounds(t *testing.T) {
	tt := newTestTable(t, Options{})
	now := tt.clk.Now()
	for d := int64(0); d < 5; d++ {
		mustInsert(t, tt.Table, usageRow(1, d, now, 0, 0))
	}
	q := NewQuery()
	q.Lower = key(1, 1, now)
	q.LowerInc = false
	q.Upper = key(1, 3, now)
	q.UpperInc = false
	rows := queryBox(t, tt.Table, q)
	if len(rows) != 1 || rows[0][1].Int != 2 {
		t.Fatalf("exclusive bounds returned %v", rows)
	}
	// Exclusive prefix bound skips the whole prefix range.
	q2 := NewQuery()
	q2.Lower = key(1, 1)
	q2.LowerInc = false
	rows = queryBox(t, tt.Table, q2)
	if len(rows) != 3 { // devices 2, 3, 4
		t.Fatalf("exclusive prefix lower bound returned %d rows, want 3", len(rows))
	}
}

func TestQueryDescending(t *testing.T) {
	tt := newTestTable(t, Options{})
	now := tt.clk.Now()
	for i := int64(0); i < 20; i++ {
		mustInsert(t, tt.Table, usageRow(1, i, now, 0, i))
	}
	if err := tt.FlushAll(); err != nil {
		t.Fatal(err)
	}
	mustInsert(t, tt.Table, usageRow(1, 20, now, 0, 20))
	q := NewQuery()
	q.Descending = true
	rows := queryBox(t, tt.Table, q)
	if len(rows) != 21 {
		t.Fatalf("got %d rows", len(rows))
	}
	for i := range rows {
		if rows[i][1].Int != int64(20-i) {
			t.Fatalf("descending order broken at %d: %v", i, rows[i][1])
		}
	}
}

func TestQueryLimit(t *testing.T) {
	tt := newTestTable(t, Options{})
	now := tt.clk.Now()
	for i := int64(0); i < 50; i++ {
		mustInsert(t, tt.Table, usageRow(1, i, now, 0, 0))
	}
	q := NewQuery()
	q.Limit = 7
	rows := queryBox(t, tt.Table, q)
	if len(rows) != 7 {
		t.Fatalf("limit returned %d rows", len(rows))
	}
}

func TestQueryInvalid(t *testing.T) {
	tt := newTestTable(t, Options{})
	q := NewQuery()
	q.MinTs, q.MaxTs = 10, 5
	if _, err := tt.Query(q); !errors.Is(err, ErrBadQuery) {
		t.Errorf("inverted ts bounds: %v", err)
	}
	q = NewQuery()
	q.Lower = key(5)
	q.Upper = key(2)
	if _, err := tt.Query(q); !errors.Is(err, ErrBadQuery) {
		t.Errorf("inverted key bounds: %v", err)
	}
}

func TestDuplicateKeyRejected(t *testing.T) {
	tt := newTestTable(t, Options{})
	now := tt.clk.Now()
	mustInsert(t, tt.Table, usageRow(1, 1, now, 1, 0))
	// Duplicate in memory.
	if err := tt.Insert([]schema.Row{usageRow(1, 1, now, 2, 1)}); !errors.Is(err, ErrDuplicateKey) {
		t.Errorf("memory duplicate: %v", err)
	}
	// Duplicate after flush (on disk).
	if err := tt.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := tt.Insert([]schema.Row{usageRow(1, 1, now, 2, 1)}); !errors.Is(err, ErrDuplicateKey) {
		t.Errorf("disk duplicate: %v", err)
	}
	// Duplicate within one batch.
	r := usageRow(9, 9, now, 0, 0)
	if err := tt.Insert([]schema.Row{r, r}); !errors.Is(err, ErrDuplicateKey) {
		t.Errorf("batch duplicate: %v", err)
	}
	// Same key cells, different ts: not a duplicate.
	mustInsert(t, tt.Table, usageRow(1, 1, now+1, 1, 2))
}

func TestUniquenessFastPaths(t *testing.T) {
	tt := newTestTable(t, Options{})
	now := tt.clk.Now()
	// Ascending timestamps: every insert should take the newest-ts path.
	for i := int64(0); i < 10; i++ {
		mustInsert(t, tt.Table, usageRow(1, 1, now+i, 0, i))
	}
	s := tt.Stats().Snapshot()
	if s.UniqueFastNew != 10 {
		t.Errorf("UniqueFastNew = %d, want 10", s.UniqueFastNew)
	}
	// Same timestamp, ascending keys: the largest-key path.
	for d := int64(2); d < 12; d++ {
		mustInsert(t, tt.Table, usageRow(1, d, now, 0, 0))
	}
	s = tt.Stats().Snapshot()
	if s.UniqueFastKey != 10 {
		t.Errorf("UniqueFastKey = %d, want 10", s.UniqueFastKey)
	}
	if s.UniqueProbes != 0 {
		t.Errorf("UniqueProbes = %d, want 0 for ordered inserts", s.UniqueProbes)
	}
	// A non-duplicate row landing amid existing keys must still insert,
	// via the bloom/probe path.
	if err := tt.FlushAll(); err != nil {
		t.Fatal(err)
	}
	mustInsert(t, tt.Table, usageRow(1, 0, now, 0, 0))
	s = tt.Stats().Snapshot()
	if s.UniqueBloom+s.UniqueProbes == 0 {
		t.Error("mid-range insert used no bloom/probe path")
	}
}

func TestValidateRejectsBadRows(t *testing.T) {
	tt := newTestTable(t, Options{})
	bad := usageRow(1, 1, 1, 1, 1)[:3]
	if err := tt.Insert([]schema.Row{bad}); err == nil {
		t.Error("short row accepted")
	}
}

func TestStatsScanAccounting(t *testing.T) {
	tt := newTestTable(t, Options{})
	now := tt.clk.Now()
	// Two devices interleaved in time; query only recent data of one.
	for i := int64(0); i < 100; i++ {
		mustInsert(t, tt.Table, usageRow(1, i%2, now-i*clock.Second, 0, i))
	}
	if err := tt.FlushAll(); err != nil {
		t.Fatal(err)
	}
	q := NewQuery()
	q.Lower = key(1, 0)
	q.Upper = key(1, 0)
	rows := queryBox(t, tt.Table, q)
	if len(rows) != 50 {
		t.Fatalf("got %d rows", len(rows))
	}
	s := tt.Stats().Snapshot()
	if s.RowsReturned != 50 {
		t.Errorf("RowsReturned = %d", s.RowsReturned)
	}
	if s.RowsScanned < 50 {
		t.Errorf("RowsScanned = %d < returned", s.RowsScanned)
	}
	if s.ScanRatio() > 1.5 {
		t.Errorf("ScanRatio = %.2f for a clustered query; expected near 1", s.ScanRatio())
	}
}

func TestTableClosed(t *testing.T) {
	tt := newTestTable(t, Options{})
	if err := tt.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tt.Insert([]schema.Row{usageRow(1, 1, 1, 1, 1)}); !errors.Is(err, ErrTableClosed) {
		t.Errorf("insert after close: %v", err)
	}
	if _, err := tt.Query(NewQuery()); !errors.Is(err, ErrTableClosed) {
		t.Errorf("query after close: %v", err)
	}
	if err := tt.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestCreateTableTwiceFails(t *testing.T) {
	tt := newTestTable(t, Options{})
	if _, err := CreateTable(tt.dir, "usage", usageSchema(), 0, Options{Clock: tt.clk}); err == nil {
		t.Error("second CreateTable succeeded")
	}
}

func TestFlushSizeTrigger(t *testing.T) {
	// Tiny flush size: every few inserts should spill a tablet without any
	// explicit flush calls.
	tt := newTestTable(t, Options{FlushSize: 2048})
	now := tt.clk.Now()
	for i := int64(0); i < 500; i++ {
		mustInsert(t, tt.Table, usageRow(1, i, now, 0, i))
	}
	// Size triggers freeze; groups flush on FlushStep.
	for {
		ok, err := tt.FlushStep()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	if tt.DiskTabletCount() < 2 {
		t.Errorf("DiskTabletCount = %d, want several from size trigger", tt.DiskTabletCount())
	}
	rows := queryBox(t, tt.Table, NewQuery())
	if len(rows) != 500 {
		t.Fatalf("lost rows across size-triggered flushes: %d", len(rows))
	}
}

func TestFlushAgeTrigger(t *testing.T) {
	tt := newTestTable(t, Options{FlushAge: 10 * clock.Minute})
	now := tt.clk.Now()
	mustInsert(t, tt.Table, usageRow(1, 1, now, 0, 0))
	if err := tt.Tick(); err != nil {
		t.Fatal(err)
	}
	if tt.DiskTabletCount() != 0 {
		t.Error("flushed before age limit")
	}
	tt.clk.Advance(11 * clock.Minute)
	if err := tt.Tick(); err != nil {
		t.Fatal(err)
	}
	if tt.DiskTabletCount() != 1 {
		t.Errorf("DiskTabletCount = %d after age trigger", tt.DiskTabletCount())
	}
}

// An empty key bound is unbounded, as it is over the wire: exclusive or
// not, it selects every row, for Query and DeleteWhere alike.
func TestEmptyKeyBoundIsUnbounded(t *testing.T) {
	tt := newTestTable(t, Options{})
	now := tt.clk.Now()
	for i := int64(0); i < 10; i++ {
		mustInsert(t, tt.Table, usageRow(1, i, now, 0, i))
	}
	q := NewQuery()
	q.Lower, q.Upper = []ltval.Value{}, []ltval.Value{}
	q.LowerInc, q.UpperInc = false, false
	for _, desc := range []bool{false, true} {
		q.Descending = desc
		if rows, err := tt.QueryAll(q); err != nil || len(rows) != 10 {
			t.Fatalf("descending=%v: %d rows, %v; want all 10", desc, len(rows), err)
		}
	}
	if n, err := tt.DeleteWhere(q, nil); err != nil || n != 10 {
		t.Fatalf("DeleteWhere removed %d rows, %v; want all 10", n, err)
	}
}

func TestQueryRowLimitOption(t *testing.T) {
	// Server-enforced limit handled at wire layer; engine Limit in Query.
	tt := newTestTable(t, Options{})
	now := tt.clk.Now()
	for i := int64(0); i < 10; i++ {
		mustInsert(t, tt.Table, usageRow(1, i, now, 0, i))
	}
	it, err := tt.Query(NewQuery())
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	n := 0
	for it.Next() {
		n++
	}
	if n != 10 {
		t.Fatalf("iterated %d rows", n)
	}
	if it.Returned() != 10 || it.Scanned() < 10 {
		t.Error("iterator accounting wrong")
	}
}

func TestEmptyTableQuery(t *testing.T) {
	tt := newTestTable(t, Options{})
	rows := queryBox(t, tt.Table, NewQuery())
	if len(rows) != 0 {
		t.Errorf("empty table returned %d rows", len(rows))
	}
	row, ok, err := tt.LatestRow(key(1))
	if err != nil || ok || row != nil {
		t.Errorf("LatestRow on empty table: %v %v %v", row, ok, err)
	}
}

func TestManyTimestampsSameKeyPrefix(t *testing.T) {
	tt := newTestTable(t, Options{})
	now := tt.clk.Now()
	const n = 1000
	for i := int64(0); i < n; i++ {
		mustInsert(t, tt.Table, usageRow(1, 1, now-i*clock.Second, float64(i), i))
	}
	if err := tt.FlushAll(); err != nil {
		t.Fatal(err)
	}
	q := NewQuery()
	q.Lower = key(1, 1)
	q.Upper = key(1, 1)
	q.MinTs = now - 99*clock.Second
	q.MaxTs = now
	rows := queryBox(t, tt.Table, q)
	if len(rows) != 100 {
		t.Fatalf("time-sliced query returned %d rows, want 100", len(rows))
	}
}

func TestInsertBatchSizes(t *testing.T) {
	tt := newTestTable(t, Options{})
	now := tt.clk.Now()
	var batch []schema.Row
	for i := int64(0); i < 512; i++ {
		batch = append(batch, usageRow(1, i, now, 0, i))
	}
	if err := tt.Insert(batch); err != nil {
		t.Fatal(err)
	}
	if got := tt.Stats().Snapshot(); got.RowsInserted != 512 || got.InsertBatches != 1 {
		t.Errorf("stats: %+v", got)
	}
	rows := queryBox(t, tt.Table, NewQuery())
	if len(rows) != 512 {
		t.Fatalf("batch insert lost rows: %d", len(rows))
	}
}

func TestRowEstimateAndDiskBytes(t *testing.T) {
	tt := newTestTable(t, Options{})
	now := tt.clk.Now()
	for i := int64(0); i < 64; i++ {
		mustInsert(t, tt.Table, usageRow(1, i, now, 0, i))
	}
	if tt.RowEstimate() != 64 {
		t.Errorf("RowEstimate = %d", tt.RowEstimate())
	}
	if tt.DiskBytes() != 0 {
		t.Error("DiskBytes nonzero before flush")
	}
	if err := tt.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if tt.RowEstimate() != 64 {
		t.Errorf("RowEstimate after flush = %d", tt.RowEstimate())
	}
	if tt.DiskBytes() == 0 {
		t.Error("DiskBytes zero after flush")
	}
}

func ExampleTable_Query() {
	// Compile-time presence of a runnable doc example for the query API.
	fmt.Println("see examples/quickstart")
	// Output: see examples/quickstart
}

func TestBlockCacheSpeedsRepeatQueries(t *testing.T) {
	dir := t.TempDir()
	clk := clock.NewFake(testStart)
	tab, err := CreateTable(dir, "usage", usageSchema(), 0, Options{
		Clock:           clk,
		BlockCacheBytes: 4 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	now := clk.Now()
	for i := int64(0); i < 2000; i++ {
		mustInsert(t, tab, usageRow(1, i%8, now-i*clock.Second, 0, i))
	}
	if err := tab.FlushAll(); err != nil {
		t.Fatal(err)
	}
	q := NewQuery()
	q.Lower = key(1, 3)
	q.Upper = q.Lower
	first, err := tab.QueryAll(q)
	if err != nil {
		t.Fatal(err)
	}
	_, missesAfterFirst := tab.BlockCacheStats()
	if missesAfterFirst == 0 {
		t.Fatal("first query should miss the cache")
	}
	second, err := tab.QueryAll(q)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := tab.BlockCacheStats()
	if hits == 0 {
		t.Fatal("second query never hit the cache")
	}
	if misses != missesAfterFirst {
		t.Errorf("second query missed again: %d → %d", missesAfterFirst, misses)
	}
	// Same results either way.
	if len(first) != len(second) {
		t.Fatalf("cached query returned %d rows vs %d", len(second), len(first))
	}
	for i := range first {
		if tab.Schema().CompareKeys(first[i], second[i]) != 0 {
			t.Fatal("cached query returned different rows")
		}
	}
}

func TestBlockCacheDisabledByDefault(t *testing.T) {
	tt := newTestTable(t, Options{})
	if h, m := tt.BlockCacheStats(); h != 0 || m != 0 {
		t.Error("cache active without opt-in")
	}
}

func TestPartialBatchStatsAccurate(t *testing.T) {
	tt := newTestTable(t, Options{})
	now := tt.clk.Now()
	mustInsert(t, tt.Table, usageRow(1, 1, now, 0, 0))
	// Batch of three where the second duplicates an existing key: the
	// first lands, the rest do not, and stats must say exactly that.
	batch := []schema.Row{
		usageRow(2, 2, now, 0, 1),
		usageRow(1, 1, now, 0, 2), // duplicate
		usageRow(3, 3, now, 0, 3),
	}
	if err := tt.Insert(batch); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("batch: %v", err)
	}
	s := tt.Stats().Snapshot()
	if s.RowsInserted != 2 { // the original + the first batch row
		t.Errorf("RowsInserted = %d, want 2", s.RowsInserted)
	}
	rows := queryBox(t, tt.Table, NewQuery())
	if len(rows) != 2 {
		t.Errorf("table has %d rows", len(rows))
	}
}
