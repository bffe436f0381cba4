package core

import (
	"sync"
	"testing"

	"littletable/internal/clock"
	"littletable/internal/schema"
)

// TestMergeRacesConcurrentFlushSamePeriod drives background merge workers
// against the async flush pipeline landing sealed tablets in the very
// period being merged: the merge's descriptor commit and the flush's must
// interleave without losing either side's tablets. Run under -race this is
// the scheduler's main aliasing test — inputs are claimed under mu, so a
// flush publishing into the live set mid-merge must be preserved by the
// merge's commit (which re-reads the set rather than overwriting it).
func TestMergeRacesConcurrentFlushSamePeriod(t *testing.T) {
	tt := newTestTable(t, Options{
		MergeWorkers: 2,
		MergeDelay:   1 * clock.Second,
		FlushWorkers: 2,
		FlushSize:    1 << 10,
	})
	now := tt.clk.Now()
	// Weeks-old base: one coarse period, rollover delay long past.
	base := now - 5*clock.Week

	n := 0
	insertAt := func(ts int64) {
		t.Helper()
		mustInsert(t, tt.Table, usageRow(1, int64(n%9), ts, 0, int64(n)))
		n++
	}
	// Pre-seed three flushed tablets in the period so a merge is claimable
	// the moment the clock clears MergeDelay.
	for b := 0; b < 3; b++ {
		for i := 0; i < 30; i++ {
			insertAt(base + int64(n))
		}
		if err := tt.FlushAll(); err != nil {
			t.Fatal(err)
		}
	}
	seeded := n
	tt.clk.Advance(2 * clock.Second)

	// Race: while the workers merge the seeded tablets, keep inserting into
	// the SAME period; FlushSize 1KiB seals tablets mid-merge and the flush
	// workers commit them concurrently with the merge's descriptor write.
	var wg sync.WaitGroup
	errCh := make(chan error, 2)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 400; i++ {
			if err := tt.Insert([]schema.Row{usageRow(1, int64(i%9), base+10_000+int64(i), 0, int64(seeded+i))}); err != nil {
				errCh <- err
				return
			}
		}
	}()
	if err := tt.MaintainUntilQuiet(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	n += 400

	// Drain: flush the stragglers, age them past MergeDelay, converge.
	if err := tt.FlushAll(); err != nil {
		t.Fatal(err)
	}
	tt.clk.Advance(2 * clock.Second)
	if err := tt.MaintainUntilQuiet(); err != nil {
		t.Fatal(err)
	}

	rows := queryBox(t, tt.Table, NewQuery())
	if len(rows) != n {
		t.Fatalf("lost rows across merge/flush race: got %d, inserted %d", len(rows), n)
	}
	if m := tt.Stats().Merges.Load(); m == 0 {
		t.Fatal("no merges ran; the race never happened")
	}
	if got := len(queryBox(t, reopen(t, tt).Table, NewQuery())); got != n {
		t.Fatalf("reopen after race recovered %d rows, want %d", got, n)
	}
}

// TestExpiryRacesMergeOfExpiringPeriod pits TTL expiry against merges of a
// period whose tablets are mid-expiry: one fully-expired period (expiry
// must reclaim it) and one merge-eligible live period (workers must merge
// it), with an extra goroutine hammering ExpireNow the whole time. Expiry
// skips busy (being-merged) tablets and merges drop expired rows, so
// whoever wins each tablet, the end state is the same: expired data gone,
// live data intact.
func TestExpiryRacesMergeOfExpiringPeriod(t *testing.T) {
	tt := newTestTable(t, Options{
		MergeWorkers: 2,
		MergeDelay:   1 * clock.Second,
	})
	if err := tt.AlterTTL(45 * clock.Day); err != nil {
		t.Fatal(err)
	}
	now := tt.clk.Now()
	doomedBase := now - 6*clock.Week // 42d old: expired once we advance 8d
	liveBase := now - 5*clock.Week   // 35d old: stays inside the 45d TTL

	n := 0
	fill := func(base int64) int {
		t.Helper()
		rows := 0
		for b := 0; b < 3; b++ {
			for i := 0; i < 12; i++ {
				mustInsert(t, tt.Table, usageRow(1, int64(b*20+i), base+int64(rows), 0, int64(n)))
				n++
				rows++
			}
			if err := tt.FlushAll(); err != nil {
				t.Fatal(err)
			}
		}
		return rows
	}
	fill(doomedBase)
	liveRows := fill(liveBase)

	// One jump makes the doomed period expired AND both periods
	// merge-eligible at once, so expiry and merge contend immediately.
	tt.clk.Advance(8 * clock.Day)

	var wg sync.WaitGroup
	errCh := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if err := tt.ExpireNow(); err != nil {
				errCh <- err
				return
			}
		}
	}()
	if err := tt.MaintainUntilQuiet(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// A merge that raced expiry may have produced a fresh all-expired
	// output; one more round reclaims it.
	if err := tt.MaintainUntilQuiet(); err != nil {
		t.Fatal(err)
	}

	rows := queryBox(t, tt.Table, NewQuery())
	if len(rows) != liveRows {
		t.Fatalf("got %d rows after expiry/merge race, want the %d live ones", len(rows), liveRows)
	}
	for _, r := range rows {
		if r[2].Int < doomedBase+100 {
			t.Fatalf("expired-period row survived: %v", r)
		}
	}
	s := tt.Stats().Snapshot()
	if s.TabletsExpired == 0 {
		t.Fatal("nothing expired; the race never happened")
	}
	if s.Merges == 0 {
		t.Fatal("nothing merged; the race never happened")
	}
}
