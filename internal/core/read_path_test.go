package core

import (
	"fmt"
	"path/filepath"
	"testing"

	"littletable/internal/clock"
	"littletable/internal/ltval"
	"littletable/internal/schema"
	"littletable/internal/tablet"
)

// TestKeyRangeQueryLoadsExactlyIntersectingBlocks is the reason
// TestBlockCacheSpeedsRepeatQueries stopped flaking: a key-range query
// reads the blocks its range intersects and no others, prefetch
// pipeline and all — the pipeline ends where the footer's last-key index
// says the range ends, not wherever a cancellation happens to catch it.
func TestKeyRangeQueryLoadsExactlyIntersectingBlocks(t *testing.T) {
	const rows = 3000
	now := testStart
	usage := func(i int64) schema.Row { return usageRow(1, i/100, now-(rows-i)*clock.Second, 0, i) }
	baseline := stableGoroutineCount()
	for _, desc := range []bool{false, true} {
		clk := clock.NewFake(now)
		tab, err := CreateTable(t.TempDir(), "usage", usageSchema(), 0, Options{
			Clock: clk, BlockCacheBytes: 4 << 20, BlockSize: 4 << 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < rows; i++ {
			mustInsert(t, tab, usage(i))
		}
		if err := tab.FlushAll(); err != nil {
			t.Fatal(err)
		}
		// Map every row to its block by walking the one tablet, through
		// a handle of its own so the table's cache stays cold.
		if len(tab.set.live) != 1 {
			t.Fatalf("%d tablets, want one", len(tab.set.live))
		}
		tb, err := tablet.Open(tab.set.live[0].path)
		if err != nil {
			t.Fatal(err)
		}
		defer tb.Close()
		if tb.BlockCount() < 6 {
			t.Fatalf("%d blocks, want at least 6", tb.BlockCount())
		}
		blockOf := make([]int, 0, rows)
		c := tb.Cursor(true)
		for c.Next() {
			blockOf = append(blockOf, c.BlocksRead-1)
		}
		if err := c.Err(); err != nil || len(blockOf) != rows {
			t.Fatalf("walked %d rows: %v", len(blockOf), err)
		}
		// A range from the middle of block 1 to the middle of block 4.
		first, last := -1, -1
		for i, b := range blockOf {
			if b == 1 && first < 0 && blockOf[i-3] == 1 {
				first = i
			}
			if b == 4 && blockOf[i+3] == 4 {
				last = i
			}
		}
		q := NewQuery()
		q.Descending = desc
		q.Lower = usageSchema().KeyOf(usage(int64(first)))
		q.Upper = usageSchema().KeyOf(usage(int64(last)))

		it, err := tab.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for it.Next() {
			n++
		}
		if err := it.Err(); err != nil || n != last-first+1 {
			t.Fatalf("desc=%v: %d rows (%v), want %d", desc, n, err, last-first+1)
		}
		it.Close()
		if _, misses := tab.BlockCacheStats(); misses != 4 {
			t.Errorf("desc=%v: a scan of blocks 1-4 loaded %d blocks", desc, misses)
		}

		// An abandoned query reaps its pipeline and still never reads
		// past the range.
		it, err = tab.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		it.Next()
		it.Close()
		if hits, misses := tab.BlockCacheStats(); misses != 4 || hits == 0 {
			t.Errorf("desc=%v: repeat query: %d hits, %d misses, want every block cached", desc, hits, misses)
		}
		tab.Close()
	}
	checkGoroutineCount(t, baseline)
}

// TestIteratorRowIntactUntilNext merges three tablets of interleaved
// string-keyed rows, one key present in two of them. Disk sources reuse
// their row buffers, so the merge must not step a source while the row it
// yielded is still the current one: every Row() has to read back whole
// until the following Next, and the duplicate must surface once, from the
// newer tablet.
func TestIteratorRowIntactUntilNext(t *testing.T) {
	sc := schema.MustNew([]schema.Column{
		{Name: "name", Type: ltval.String},
		{Name: "ts", Type: ltval.Timestamp},
		{Name: "val", Type: ltval.Int64},
		{Name: "note", Type: ltval.String},
	}, []string{"name", "ts"})
	clk := clock.NewFake(testStart)
	tab, err := CreateTable(t.TempDir(), "events", sc, 0, Options{Clock: clk, BlockSize: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	const n = 600
	mk := func(i int, val int64) schema.Row {
		return schema.Row{
			ltval.NewString(fmt.Sprintf("device-%02d", i/10)), ltval.NewTimestamp(testStart - int64(n-i)*clock.Second),
			ltval.NewInt64(val), ltval.NewString(fmt.Sprintf("note for row %d", i)),
		}
	}
	var want []schema.Row
	for i := 0; i < n; i++ {
		want = append(want, mk(i, int64(i)))
	}
	// Three tablets, rows dealt round-robin so every merge step switches
	// source.
	for j := 0; j < 3; j++ {
		for i := j; i < n; i += 3 {
			mustInsert(t, tab, want[i])
		}
		if err := tab.FlushAll(); err != nil {
			t.Fatal(err)
		}
	}
	// A fourth, newer tablet repeats one key with a different value. The
	// uniqueness check makes that impossible through Insert, so write the
	// tablet directly and install it as flush would.
	const dup = 301
	want[dup] = mk(dup, -1)
	path := filepath.Join(tab.dir, tabletFileName(999))
	w, err := tablet.Create(path, sc, tablet.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(want[dup]); err != nil {
		t.Fatal(err)
	}
	info, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	dtab, err := tablet.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	tab.mu.Lock()
	tab.set.Publish([]*diskTablet{{
		rec:  tabletRecord{File: filepath.Base(path), Seq: 999, RowCount: 1, MinTs: info.MinTs, MaxTs: info.MaxTs, Bytes: info.Bytes},
		tab:  dtab,
		path: path,
	}}, nil)
	tab.mu.Unlock()

	for _, desc := range []bool{false, true} {
		q := NewQuery()
		q.Descending = desc
		it, err := tab.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < n; k++ {
			i := k
			if desc {
				i = n - 1 - k
			}
			if !it.Next() {
				t.Fatalf("desc=%v: iterator ended after %d rows: %v", desc, k, it.Err())
			}
			// Read the row twice around unrelated iterator calls: it must
			// not change until Next.
			for pass := 0; pass < 2; pass++ {
				got := it.Row()
				if len(got) != len(want[i]) {
					t.Fatalf("desc=%v row %d: %d cells", desc, i, len(got))
				}
				for c := range got {
					if !got[c].Equal(want[i][c]) {
						t.Fatalf("desc=%v row %d pass %d: cell %d = %v, want %v", desc, i, pass, c, got[c], want[i][c])
					}
				}
				_ = it.Scanned()
			}
		}
		if it.Next() {
			t.Fatalf("desc=%v: extra row %v (the duplicate key surfaced twice?)", desc, it.Row())
		}
		it.Close()
	}
}
