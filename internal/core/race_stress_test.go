package core

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"littletable/internal/clock"
	"littletable/internal/schema"
)

// stressOptions adds the block cache to the read path's worker pool and
// prefetch goroutines, so the race detector sees the pool, the prefetch
// pipelines, and the cache's singleflight all at once.
func stressOptions() Options {
	return Options{
		FlushSize:       4 << 10,
		MergeDelay:      clock.Second,
		BlockCacheBytes: 4 << 20,
	}
}

// fillTablets spreads rows across n on-disk tablets plus a live memtable.
func fillTablets(t testing.TB, tt *testTable, tablets, rowsPer int) {
	t.Helper()
	seq := int64(0)
	for r := 0; r < tablets; r++ {
		rows := make([]schema.Row, 0, rowsPer)
		for i := 0; i < rowsPer; i++ {
			rows = append(rows, usageRow(int64(i%4), int64(r), testStart-int64(i)*clock.Second, 0, seq))
			seq++
		}
		mustInsert(t, tt.Table, rows...)
		if err := tt.FlushAll(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestIteratorCloseIdempotent checks that Close may be called repeatedly,
// before exhaustion, and after an explicit drain, with prefetch pipelines
// in flight each time.
func TestIteratorCloseIdempotent(t *testing.T) {
	tt := newTestTable(t, stressOptions())
	fillTablets(t, tt, 6, 200)
	for _, drain := range []int{0, 10, 1 << 30} {
		it, err := tt.Query(NewQuery())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < drain && it.Next(); i++ {
		}
		for i := 0; i < 3; i++ {
			if err := it.Close(); err != nil {
				t.Fatalf("Close #%d: %v", i, err)
			}
		}
		if it.Next() {
			t.Fatal("Next returned true after Close")
		}
	}
}

// TestIteratorCloseConcurrentWithNext races Close against a goroutine
// mid-merge: Close must unblock any in-flight block wait (via context
// cancellation), never panic, and leave no goroutine behind.
func TestIteratorCloseConcurrentWithNext(t *testing.T) {
	tt := newTestTable(t, stressOptions())
	fillTablets(t, tt, 8, 300)
	baseline := stableGoroutineCount()
	for round := 0; round < 30; round++ {
		it, err := tt.Query(NewQuery())
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for it.Next() {
			}
		}()
		if round%3 != 0 {
			time.Sleep(time.Duration(round%5) * 100 * time.Microsecond)
		}
		it.Close()
		<-done
		it.Close() // second close after the reader stopped
	}
	checkGoroutineCount(t, baseline)
}

// TestQueryGoroutineLeak is the prefetch-goroutine regression test: after
// many queries — fully drained, abandoned mid-iteration, and cancelled —
// the process goroutine count must return to its baseline. A prefetcher
// leaked by any Close path fails this within a few rounds.
func TestQueryGoroutineLeak(t *testing.T) {
	tt := newTestTable(t, stressOptions())
	fillTablets(t, tt, 8, 250)
	baseline := stableGoroutineCount()
	for round := 0; round < 50; round++ {
		it, err := tt.Query(NewQuery())
		if err != nil {
			t.Fatal(err)
		}
		switch round % 3 {
		case 0: // full drain
			for it.Next() {
			}
		case 1: // abandon after a few rows, prefetchers still loaded
			for i := 0; i < 5 && it.Next(); i++ {
			}
		case 2: // close immediately, before any Next
		}
		it.Close()
	}
	checkGoroutineCount(t, baseline)
}

func stableGoroutineCount() int {
	runtime.GC()
	time.Sleep(10 * time.Millisecond)
	return runtime.NumGoroutine()
}

func checkGoroutineCount(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var n int
	for {
		n = runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines leaked: %d live, baseline %d\n%s", n, baseline, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestConcurrentReadWriteStress runs inserters, queriers (some abandoning
// iterators mid-merge with prefetchers in flight), a merger, and TTL
// expiry concurrently for a couple of seconds — the configuration the
// race detector needs to certify the parallel read path. Afterwards every
// successfully inserted row must be present: no lost rows, no duplicate
// surfacing, no wedged iterators.
func TestConcurrentReadWriteStress(t *testing.T) {
	tt := newTestTable(t, stressOptions())
	if err := tt.AlterTTL(300 * clock.Day); err != nil {
		t.Fatal(err)
	}
	sc := tt.Schema()
	fillTablets(t, tt, 4, 100) // pre-seeded tablets so queries hit disk at once

	duration := 2 * time.Second
	if testing.Short() {
		duration = 500 * time.Millisecond
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var inserted atomic.Int64 // rows committed by inserters
	var queried atomic.Int64  // rows observed by queriers

	const inserters = 3
	for w := 0; w < inserters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seq := int64(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Key space partitioned by inserter (network = 100+w), so
				// inserts never collide and every accepted row must survive.
				row := usageRow(int64(100+w), seq%50, testStart+seq, 0, seq)
				if err := tt.Insert([]schema.Row{row}); err != nil {
					t.Errorf("inserter %d: %v", w, err)
					return
				}
				inserted.Add(1)
				seq++
			}
		}()
	}

	const queriers = 3
	for w := 0; w < queriers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				it, err := tt.Query(NewQuery())
				if err != nil {
					t.Errorf("querier %d: %v", w, err)
					return
				}
				limit := 1 << 30
				if rng.Intn(2) == 0 {
					limit = rng.Intn(200) // abandon mid-iteration
				}
				rows := 0
				var last schema.Row
				for rows < limit && it.Next() {
					row := it.Row()
					if last != nil && sc.CompareKeys(last, row) >= 0 {
						t.Errorf("querier %d: rows out of order", w)
						it.Close()
						return
					}
					last = schema.CloneRow(row)
					rows++
				}
				if err := it.Err(); err != nil {
					t.Errorf("querier %d: %v", w, err)
				}
				it.Close()
				queried.Add(int64(rows))
			}
		}()
	}

	// Maintenance: flushes, merges, and TTL expiry sweeping concurrently
	// with the readers, retiring the very tablets their iterators hold
	// refs on.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			tt.clk.Advance(2 * clock.Second)
			if err := tt.FlushAll(); err != nil {
				t.Errorf("maintenance flush: %v", err)
				return
			}
			if _, err := tt.MergeStep(); err != nil {
				t.Errorf("maintenance merge: %v", err)
				return
			}
			if i%7 == 6 {
				if err := tt.ExpireNow(); err != nil {
					t.Errorf("maintenance expire: %v", err)
					return
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()

	time.Sleep(duration)
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	// No lost rows: everything the inserters committed is still there.
	// (TTL is 300 days and all stress timestamps are near testStart, so
	// the expiry sweeps reclaimed nothing.)
	var stressRows int64
	q := NewQuery()
	it, err := tt.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	for it.Next() {
		if it.Row()[0].Int >= 100 {
			stressRows++
		}
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	it.Close()
	if stressRows != inserted.Load() {
		t.Fatalf("lost rows: %d inserted, %d readable", inserted.Load(), stressRows)
	}
	if queried.Load() == 0 {
		t.Fatal("queriers observed no rows; stress exercised nothing")
	}
}
