package core

import (
	"testing"

	"littletable/internal/clock"
	"littletable/internal/race"
	"littletable/internal/schema"
)

// fillMemtable inserts n rows over 20 devices into tt's filling memtable,
// one every step of engine time, the last at the clock's now.
func fillMemtable(t testing.TB, tt *testTable, n int, step int64) {
	t.Helper()
	now := tt.clk.Now()
	rows := make([]schema.Row, n)
	for i := range rows {
		rows[i] = usageRow(1, int64(i%20), now-int64(n-1-i)*step, float64(i), int64(i))
	}
	mustInsert(t, tt.Table, rows...)
	if d := tt.DiskTabletCount(); d != 0 {
		t.Fatalf("%d tablets on disk, want every row in memory", d)
	}
}

// TestMemtableQueryAllocsIgnoreRowsOutsideWindow pins what a memtable read
// costs: the rows outside the query's time window cost no allocation, and
// a row inside it costs no copy. Over 10,000 memtable rows of which 1,000
// lie in a two-minute window, an unbounded-key query allocates the one
// slice of references (a dozen growth steps) and the iterator's fixed
// set of objects. A copy per row in the box would be 10,000 allocations, a
// copy per row in the window 1,000.
func TestMemtableQueryAllocsIgnoreRowsOutsideWindow(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	tt := newTestTable(t, Options{})
	const n, inWindow = 10_000, 1_000
	const window = 2 * clock.Minute
	fillMemtable(t, tt, n, window/inWindow)
	now := tt.clk.Now()
	q := NewQuery()
	q.MinTs, q.MaxTs = now-window+1, now
	allocs := testing.AllocsPerRun(20, func() {
		it, err := tt.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		for it.Next() {
			got++
		}
		it.Close()
		if got != inWindow {
			t.Fatalf("query returned %d rows, want %d", got, inWindow)
		}
	})
	t.Logf("%.0f allocations per query", allocs)
	if allocs > 64 {
		t.Errorf("%.0f allocations per query over %d in-window rows of %d: something is allocated per row", allocs, inWindow, n)
	}
}

// BenchmarkQueryMemtable opens and drains a query over a filling memtable
// of 20,000 rows (20 devices, one row every 120 ms), in dash_mixed's two
// read shapes: the aggregate's unbounded key box over a two-minute window
// (about 1,000 rows), and the dashboard's one device over the trailing
// hour, descending, Limit 100.
func BenchmarkQueryMemtable(b *testing.B) {
	tt := newTestTable(b, Options{})
	fillMemtable(b, tt, 20_000, 120*clock.Millisecond)
	now := tt.clk.Now()
	aggQ := NewQuery()
	aggQ.MinTs, aggQ.MaxTs = now-2*clock.Minute, now
	dashQ := NewQuery()
	dashQ.Lower, dashQ.Upper = key(1, 7), key(1, 7)
	dashQ.MinTs, dashQ.MaxTs = now-clock.Hour, now
	dashQ.Descending, dashQ.Limit = true, 100
	for _, shape := range []struct {
		name string
		q    Query
	}{{"agg", aggQ}, {"dashboard", dashQ}} {
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			rows := 0
			for i := 0; i < b.N; i++ {
				it, err := tt.Query(shape.q)
				if err != nil {
					b.Fatal(err)
				}
				for it.Next() {
					rows++
				}
				it.Close()
			}
			b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
		})
	}
}
