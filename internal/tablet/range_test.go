package tablet

import (
	"math/rand"
	"testing"

	"littletable/internal/block"
	"littletable/internal/blockcache"
	"littletable/internal/ltval"
	"littletable/internal/race"
	"littletable/internal/schema"
)

// TestSeekRangeAgainstLinearScan checks SeekRange's contract on random
// key boxes — full keys, prefixes and open ends, both directions, with and
// without a prefetch pipeline: every in-range row is yielded in order from
// the starting bound, and the cursor reads no block that lies wholly
// outside the box.
func TestSeekRangeAgainstLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var rows []schema.Row
	seen := map[[3]int64]bool{}
	for len(rows) < 800 {
		k := [3]int64{rng.Int63n(8), rng.Int63n(12), rng.Int63n(50) * 100}
		if !seen[k] {
			seen[k] = true
			rows = append(rows, row(k[0], k[1], k[2], nil))
		}
	}
	sc := testSchema(t)
	sortRows(sc, rows)
	tab := writeTablet(t, t.TempDir(), WriterOptions{BlockSize: 256}, rows)
	// blockOf[i] is the block row i lives in.
	var blockOf []int
	walk := tab.Cursor(true)
	for walk.Next() {
		blockOf = append(blockOf, walk.BlocksRead-1)
	}
	bound := func() []ltval.Value {
		k := key(rng.Int63n(9), rng.Int63n(13), rng.Int63n(5100))
		return k[:rng.Intn(len(k)+1)] // length 0 stands for "unbounded"
	}
	for trial := 0; trial < 400; trial++ {
		lower, upper := bound(), bound()
		if len(lower) == 0 {
			lower = nil
		}
		if len(upper) == 0 {
			upper = nil
		}
		asc := trial%2 == 0
		// The rows inside [lower, upper], in scan order, and the blocks
		// they span.
		var want []int
		for i, r := range rows {
			if (lower == nil || sc.CompareRowToKey(r, lower) >= 0) && (upper == nil || sc.CompareRowToKey(r, upper) <= 0) {
				want = append(want, i)
			}
		}
		if !asc {
			for i, j := 0, len(want)-1; i < j; i, j = i+1, j-1 {
				want[i], want[j] = want[j], want[i]
			}
		}
		c, err := tab.SeekRange(lower, upper, asc, ReadOptions{PrefetchDepth: trial % 4})
		if err != nil {
			t.Fatal(err)
		}
		// The caller stops at the far bound, as core's diskSource does.
		far, sign := upper, 1
		if !asc {
			far, sign = lower, -1
		}
		var got int
		for c.Next() {
			if far != nil && sign*sc.CompareRowToKey(c.Row(), far) > 0 {
				break
			}
			if got >= len(want) || sc.CompareKeys(c.Row(), rows[want[got]]) != 0 {
				t.Fatalf("trial %d (%v..%v asc=%v): row %d of %d is %v", trial, lower, upper, asc, got, len(want), c.Row())
			}
			got++
		}
		c.Close()
		if err := c.Err(); err != nil || got != len(want) {
			t.Fatalf("trial %d (%v..%v asc=%v): %d rows (%v), want %d", trial, lower, upper, asc, got, err, len(want))
		}
		// Blocks read: the span of the in-range rows, plus at most one at
		// the far end (the footer knows last keys only, so the block after
		// the range may have to be opened to find that out) and one at the
		// near end (a start bound between two blocks lands in the first).
		span := 0
		if len(want) > 0 {
			span = 1 + max(blockOf[want[0]], blockOf[want[len(want)-1]]) - min(blockOf[want[0]], blockOf[want[len(want)-1]])
		}
		if c.BlocksRead > span+2 {
			t.Fatalf("trial %d (%v..%v asc=%v): read %d blocks for a range spanning %d", trial, lower, upper, asc, c.BlocksRead, span)
		}
	}
}

// TestCursorNextDoesNotAllocate is the tier-1 guard on row emission: once
// a tablet's blocks are cached, stepping a cursor costs no allocation —
// the cursor decodes into a row it owns.
func TestCursorNextDoesNotAllocate(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	for _, enc := range []struct {
		name string
		opts WriterOptions
	}{{"columnar", WriterOptions{}}, {"legacy", WriterOptions{Encoding: block.ModeLegacy}}} {
		tab := writeTablet(t, t.TempDir(), enc.opts, seqRows(20000))
		tab.SetBlockCache(blockcache.New(64<<20), 1)
		warm := tab.Cursor(true)
		for warm.Next() {
		}
		c := tab.Cursor(true)
		c.Next() // sizes the row buffer
		const rowsPerRun = 1000
		avg := testing.AllocsPerRun(10, func() {
			for i := 0; i < rowsPerRun; i++ {
				if !c.Next() {
					t.Fatal("cursor ran dry")
				}
			}
		})
		if perRow := avg / rowsPerRun; perRow != 0 {
			t.Errorf("%s: Cursor.Next allocates %.3f objects per row over a cached tablet, want 0", enc.name, perRow)
		}
	}
}

// BenchmarkCursorRangeScan is the per-source inner loop of a key-range
// query: seek to a device's rows, drain them, close. B/op ÷ 100 is bytes
// allocated per row returned; with a cold cache it includes decoding the
// block or two the range touches, and nothing beyond them.
func BenchmarkCursorRangeScan(b *testing.B) {
	tab := writeTablet(b, b.TempDir(), WriterOptions{}, seqRows(100000))
	b.ReportAllocs()
	b.SetBytes(100 * tab.SizeBytes() / tab.RowCount())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := key(int64(i * 37 % 1000))
		c, err := tab.SeekRange(k, k, true, ReadOptions{PrefetchDepth: 2})
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for c.Next() && c.Row()[0].Int == k[0].Int {
			n++
		}
		c.Close()
		if n != 100 || c.Err() != nil {
			b.Fatalf("scanned %d rows: %v", n, c.Err())
		}
	}
}
