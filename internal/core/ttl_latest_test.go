package core

import (
	"errors"
	"sync"
	"testing"

	"littletable/internal/clock"
	"littletable/internal/ltval"
	"littletable/internal/schema"
)

func TestTTLFiltersQueryResults(t *testing.T) {
	tt := newTestTable(t, Options{})
	if err := tt.AlterTTL(7 * clock.Day); err != nil {
		t.Fatal(err)
	}
	now := tt.clk.Now()
	mustInsert(t, tt.Table,
		usageRow(1, 1, now-10*clock.Day, 0, 0), // already expired
		usageRow(1, 2, now-clock.Day, 0, 1),    // live
	)
	rows := queryBox(t, tt.Table, NewQuery())
	if len(rows) != 1 || rows[0][1].Int != 2 {
		t.Fatalf("TTL filter failed: %v", rows)
	}
}

func TestTTLReclaimsTablets(t *testing.T) {
	tt := newTestTable(t, Options{})
	if err := tt.AlterTTL(7 * clock.Day); err != nil {
		t.Fatal(err)
	}
	now := tt.clk.Now()
	for i := int64(0); i < 50; i++ {
		mustInsert(t, tt.Table, usageRow(1, i, now-clock.Day, 0, i))
	}
	if err := tt.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if tt.DiskTabletCount() != 1 {
		t.Fatalf("setup: %d tablets", tt.DiskTabletCount())
	}
	// Not expired yet.
	if err := tt.ExpireNow(); err != nil {
		t.Fatal(err)
	}
	if tt.DiskTabletCount() != 1 {
		t.Error("tablet reclaimed before TTL")
	}
	tt.clk.Advance(8 * clock.Day)
	if err := tt.ExpireNow(); err != nil {
		t.Fatal(err)
	}
	if tt.DiskTabletCount() != 0 {
		t.Errorf("tablet not reclaimed: %d remain", tt.DiskTabletCount())
	}
	if s := tt.Stats().Snapshot(); s.TabletsExpired != 1 {
		t.Errorf("TabletsExpired = %d", s.TabletsExpired)
	}
	// After reopen, no expired tablets resurface.
	tt2 := reopen(t, tt)
	if rows := queryBox(t, tt2.Table, NewQuery()); len(rows) != 0 {
		t.Errorf("expired rows recovered: %d", len(rows))
	}
}

func TestTTLPartialTablet(t *testing.T) {
	// A tablet whose rows straddle the expiry cutoff stays on disk but
	// queries filter the expired half.
	tt := newTestTable(t, Options{})
	if err := tt.AlterTTL(7 * clock.Day); err != nil {
		t.Fatal(err)
	}
	now := tt.clk.Now()
	mustInsert(t, tt.Table,
		usageRow(1, 1, now-6*clock.Day, 0, 0),
		usageRow(1, 2, now-5*clock.Day, 0, 1),
	)
	if err := tt.FlushAll(); err != nil {
		t.Fatal(err)
	}
	tt.clk.Advance(2 * clock.Day) // device 1's row now expired
	if err := tt.ExpireNow(); err != nil {
		t.Fatal(err)
	}
	if tt.DiskTabletCount() != 1 {
		t.Error("straddling tablet wrongly reclaimed")
	}
	rows := queryBox(t, tt.Table, NewQuery())
	if len(rows) != 1 || rows[0][1].Int != 2 {
		t.Fatalf("partial expiry filter wrong: %v", rows)
	}
}

func TestAlterTTLPersists(t *testing.T) {
	tt := newTestTable(t, Options{})
	if err := tt.AlterTTL(3 * clock.Day); err != nil {
		t.Fatal(err)
	}
	tt2 := reopen(t, tt)
	if tt2.TTL() != 3*clock.Day {
		t.Errorf("TTL after reopen = %d", tt2.TTL())
	}
}

func TestLatestRowBasic(t *testing.T) {
	tt := newTestTable(t, Options{})
	now := tt.clk.Now()
	for i := int64(0); i < 10; i++ {
		mustInsert(t, tt.Table, usageRow(1, 1, now-i*clock.Hour, float64(i), i))
		mustInsert(t, tt.Table, usageRow(1, 2, now-i*clock.Hour-1, float64(i), i))
	}
	// Full non-ts prefix: (network, device).
	row, ok, err := tt.LatestRow(key(1, 1))
	if err != nil || !ok {
		t.Fatalf("LatestRow: %v %v", ok, err)
	}
	if row[2].Int != now {
		t.Errorf("latest ts = %d, want %d", row[2].Int, now)
	}
	// Shorter prefix: network only; latest row of the network.
	row, ok, err = tt.LatestRow(key(1))
	if err != nil || !ok {
		t.Fatalf("LatestRow(network): %v %v", ok, err)
	}
	if row[2].Int != now {
		t.Errorf("latest network ts = %d", row[2].Int)
	}
	// Missing prefix.
	_, ok, err = tt.LatestRow(key(99))
	if err != nil || ok {
		t.Errorf("LatestRow(missing) = %v, %v", ok, err)
	}
}

func TestLatestRowAcrossTablets(t *testing.T) {
	// The latest row lives arbitrarily far in the past (§3.4.5's hard
	// case): the search must walk back through groups until it finds it.
	tt := newTestTable(t, Options{})
	now := tt.clk.Now()
	// Device 7's only row is 90 days old; lots of newer data for others.
	mustInsert(t, tt.Table, usageRow(1, 7, now-90*clock.Day, 42, 0))
	if err := tt.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for w := int64(1); w <= 8; w++ {
		for i := int64(0); i < 20; i++ {
			mustInsert(t, tt.Table, usageRow(1, 1, now-w*clock.Week+i*clock.Minute, 0, 0))
		}
		if err := tt.FlushAll(); err != nil {
			t.Fatal(err)
		}
	}
	row, ok, err := tt.LatestRow(key(1, 7))
	if err != nil || !ok {
		t.Fatalf("LatestRow: %v %v", ok, err)
	}
	if row[3].Float != 42 {
		t.Errorf("found wrong row: %v", row)
	}
	// Latest for device 1 is in the newest group.
	row, ok, _ = tt.LatestRow(key(1, 1))
	if !ok || row[2].Int != now-1*clock.Week+19*clock.Minute {
		t.Errorf("latest for device 1: %v %v", ok, row)
	}
}

func TestLatestRowMemoryAndDisk(t *testing.T) {
	tt := newTestTable(t, Options{})
	now := tt.clk.Now()
	mustInsert(t, tt.Table, usageRow(1, 1, now-clock.Hour, 1, 0))
	if err := tt.FlushAll(); err != nil {
		t.Fatal(err)
	}
	mustInsert(t, tt.Table, usageRow(1, 1, now, 2, 1)) // newer, in memory
	row, ok, err := tt.LatestRow(key(1, 1))
	if err != nil || !ok {
		t.Fatal(err)
	}
	if row[3].Float != 2 {
		t.Errorf("latest should be the in-memory row: %v", row)
	}
}

func TestLatestRowRespectsTTL(t *testing.T) {
	tt := newTestTable(t, Options{})
	if err := tt.AlterTTL(clock.Day); err != nil {
		t.Fatal(err)
	}
	now := tt.clk.Now()
	mustInsert(t, tt.Table, usageRow(1, 1, now-2*clock.Day, 0, 0)) // expired
	_, ok, err := tt.LatestRow(key(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("LatestRow returned an expired row")
	}
}

func TestLatestRowInvalidPrefix(t *testing.T) {
	tt := newTestTable(t, Options{})
	if _, _, err := tt.LatestRow(nil); !errors.Is(err, ErrBadQuery) {
		t.Errorf("nil prefix: %v", err)
	}
	long := key(1, 2, 3)
	long = append(long, ltval.NewInt64(4))
	if _, _, err := tt.LatestRow(long); !errors.Is(err, ErrBadQuery) {
		t.Errorf("overlong prefix: %v", err)
	}
}

func TestAddColumnAndReadBack(t *testing.T) {
	tt := newTestTable(t, Options{})
	now := tt.clk.Now()
	mustInsert(t, tt.Table, usageRow(1, 1, now-clock.Minute, 1.5, 0))
	if err := tt.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := tt.AddColumn(schema.Column{
		Name: "tag", Type: ltval.String, Default: ltval.NewString("untagged"),
	}); err != nil {
		t.Fatal(err)
	}
	// Old rows read back with the default filled in.
	rows := queryBox(t, tt.Table, NewQuery())
	if len(rows) != 1 || len(rows[0]) != 6 {
		t.Fatalf("rows after AddColumn: %v", rows)
	}
	if string(rows[0][5].Bytes) != "untagged" {
		t.Errorf("default fill = %v", rows[0][5])
	}
	// New rows carry the new column.
	newRow := append(usageRow(1, 2, now, 2.5, 1), ltval.NewString("classroom"))
	mustInsert(t, tt.Table, newRow)
	rows = queryBox(t, tt.Table, NewQuery())
	if len(rows) != 2 || string(rows[1][5].Bytes) != "classroom" {
		t.Fatalf("mixed-schema read: %v", rows)
	}
	// Survives reopen (flush first: reopen simulates a crash, and the new
	// row would otherwise be legitimately lost).
	if err := tt.FlushAll(); err != nil {
		t.Fatal(err)
	}
	tt2 := reopen(t, tt)
	rows = queryBox(t, tt2.Table, NewQuery())
	if len(rows) != 2 || string(rows[0][5].Bytes) != "untagged" {
		t.Fatalf("after reopen: %v", rows)
	}
}

func TestWidenColumnAndReadBack(t *testing.T) {
	dir := t.TempDir()
	clk := clock.NewFake(testStart)
	sc := schema.MustNew([]schema.Column{
		{Name: "k", Type: ltval.Int64},
		{Name: "ts", Type: ltval.Timestamp},
		{Name: "count", Type: ltval.Int32},
	}, []string{"k", "ts"})
	tab, err := CreateTable(dir, "counters", sc, 0, Options{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	now := clk.Now()
	if err := tab.Insert([]schema.Row{{ltval.NewInt64(1), ltval.NewTimestamp(now), ltval.NewInt32(7)}}); err != nil {
		t.Fatal(err)
	}
	if err := tab.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := tab.WidenColumn("count"); err != nil {
		t.Fatal(err)
	}
	// Old row reads back as int64.
	rows, err := tab.QueryAll(NewQuery())
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][2].Type != ltval.Int64 || rows[0][2].Int != 7 {
		t.Fatalf("widened read: %v", rows[0][2])
	}
	// New rows insert with int64.
	if err := tab.Insert([]schema.Row{{ltval.NewInt64(1), ltval.NewTimestamp(now + 1), ltval.NewInt64(1 << 40)}}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentInsertAndQuery(t *testing.T) {
	tt := newTestTable(t, Options{FlushSize: 16 * 1024})
	now := tt.clk.Now()
	const writers = 1 // single writer per the model; queries race it
	const perWriter = 2000
	var wg sync.WaitGroup
	wg.Add(writers + 2)
	errCh := make(chan error, writers+2)
	for w := 0; w < writers; w++ {
		go func() {
			defer wg.Done()
			for i := int64(0); i < perWriter; i++ {
				if err := tt.Insert([]schema.Row{usageRow(1, i%50, now+i, 0, i)}); err != nil {
					errCh <- err
					return
				}
				if i%500 == 0 {
					if _, err := tt.FlushStep(); err != nil {
						errCh <- err
						return
					}
				}
			}
		}()
	}
	for r := 0; r < 2; r++ {
		go func() {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				q := NewQuery()
				q.Lower = key(1)
				q.Upper = key(1)
				rows, err := tt.QueryAll(q)
				if err != nil {
					errCh <- err
					return
				}
				// Results must be ordered and duplicate-free regardless of
				// concurrent inserts.
				sc := tt.Schema()
				for i := 1; i < len(rows); i++ {
					if sc.CompareKeys(rows[i-1], rows[i]) >= 0 {
						errCh <- errors.New("unordered result under concurrency")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	rows := queryBox(t, tt.Table, NewQuery())
	if len(rows) != perWriter {
		t.Fatalf("lost rows under concurrency: %d", len(rows))
	}
}

func TestFlushBefore(t *testing.T) {
	tt := newTestTable(t, Options{})
	now := tt.clk.Now()
	// One tablet entirely before the cutoff (old week), one after (today).
	mustInsert(t, tt.Table, usageRow(1, 1, now-30*clock.Day, 0, 0))
	mustInsert(t, tt.Table, usageRow(1, 1, now, 0, 1))
	if err := tt.FlushBefore(now - clock.Day); err != nil {
		t.Fatal(err)
	}
	if tt.DiskTabletCount() < 1 {
		t.Fatal("FlushBefore flushed nothing")
	}
	// The today tablet may legitimately stay in memory (its timespan
	// starts after the cutoff and it has no dependency forcing it out)...
	// but in this insert order (old row first, then new) the dependency
	// edge points old→new, so only the old tablet must be on disk.
	rows := queryBox(t, tt.Table, NewQuery())
	if len(rows) != 2 {
		t.Fatalf("rows after FlushBefore: %d", len(rows))
	}
	// Everything before the cutoff is durable: crash and verify.
	tt2 := reopen(t, tt)
	found := false
	for _, r := range queryBox(t, tt2.Table, NewQuery()) {
		if r[4].Int == 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("pre-cutoff row not durable after FlushBefore + crash")
	}
}

// TestExpiryWaitOnEngineClock pins ExpiryWaitNs to the engine clock: an
// expiry noticed due, then run after the fake clock advances five
// minutes, adds exactly 3e11 ns, however long the test itself takes. The
// expiry becomes due at engine time 0, which must count as a time, not
// as "not waiting".
func TestExpiryWaitOnEngineClock(t *testing.T) {
	tt := newTestTable(t, Options{})
	tt.clk.Set(0)
	if err := tt.AlterTTL(7 * clock.Day); err != nil {
		t.Fatal(err)
	}
	mustInsert(t, tt.Table, usageRow(1, 1, -10*clock.Day, 0, 0))
	if err := tt.FlushAll(); err != nil {
		t.Fatal(err)
	}
	tt.mu.Lock()
	due := tt.expiredLocked(tt.clk.Now())
	tt.mu.Unlock()
	if len(due) != 1 {
		t.Fatalf("%d tablets due for expiry, want 1", len(due))
	}
	before := tt.Stats().Snapshot().ExpiryWaitNs
	tt.clk.Advance(5 * clock.Minute)
	if err := tt.ExpireNow(); err != nil {
		t.Fatal(err)
	}
	if tt.DiskTabletCount() != 0 {
		t.Fatalf("%d tablets left after expiry", tt.DiskTabletCount())
	}
	if got := tt.Stats().Snapshot().ExpiryWaitNs - before; got != 300_000_000_000 {
		t.Fatalf("ExpiryWaitNs grew by %d ns, want 3e11 (five engine minutes)", got)
	}
}
