package core

import (
	"math"
	"math/rand"
	"testing"

	"littletable/internal/clock"
)

// fillAndFlush inserts n rows with sequential device ids starting at base,
// all timestamped within one hour of now, then flushes, producing one
// on-disk tablet per call.
func fillAndFlush(t testing.TB, tt *testTable, base, n int64, ts int64) {
	t.Helper()
	for i := int64(0); i < n; i++ {
		mustInsert(t, tt.Table, usageRow(1, base+i, ts+base+i, 0, base+i))
	}
	if err := tt.FlushAll(); err != nil {
		t.Fatal(err)
	}
}

func TestMergeReducesTabletCount(t *testing.T) {
	tt := newTestTable(t, Options{MergeDelay: clock.Second})
	now := tt.clk.Now()
	for k := int64(0); k < 8; k++ {
		fillAndFlush(t, tt, k*100, 100, now-clock.Hour)
	}
	if tt.DiskTabletCount() != 8 {
		t.Fatalf("setup produced %d tablets", tt.DiskTabletCount())
	}
	tt.clk.Advance(2 * clock.Second)
	n, err := tt.MergeUntilStable()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no merges performed")
	}
	if tt.DiskTabletCount() >= 8 {
		t.Errorf("merging left %d tablets", tt.DiskTabletCount())
	}
	// All rows still present and ordered.
	rows := queryBox(t, tt.Table, NewQuery())
	if len(rows) != 800 {
		t.Fatalf("merge lost rows: %d", len(rows))
	}
}

func TestMergeRespectsDelay(t *testing.T) {
	tt := newTestTable(t, Options{MergeDelay: 90 * clock.Second})
	now := tt.clk.Now()
	fillAndFlush(t, tt, 0, 50, now-clock.Hour)
	fillAndFlush(t, tt, 100, 50, now-clock.Hour)
	ok, err := tt.MergeStep()
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("merged before the 90s delay")
	}
	tt.clk.Advance(91 * clock.Second)
	ok, err = tt.MergeStep()
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("did not merge after the delay")
	}
}

func TestMergeNeverCrossesPeriods(t *testing.T) {
	tt := newTestTable(t, Options{MergeDelay: clock.Second})
	now := tt.clk.Now()
	// Two tablets in one old week, two in another old week.
	weekA := now - 60*clock.Day
	weekB := now - 30*clock.Day
	fillAndFlush(t, tt, 0, 50, weekA)
	fillAndFlush(t, tt, 100, 50, weekA+clock.Hour)
	fillAndFlush(t, tt, 200, 50, weekB)
	fillAndFlush(t, tt, 300, 50, weekB+clock.Hour)
	// Let the rollover delay pass: a full week plus slack.
	tt.clk.Advance(8 * clock.Day)
	if _, err := tt.MergeUntilStable(); err != nil {
		t.Fatal(err)
	}
	// Periods must remain separate: at least two tablets, and no tablet
	// spans both weeks.
	tt.mu.Lock()
	defer tt.mu.Unlock()
	if len(tt.set.live) < 2 {
		t.Fatalf("merging collapsed across periods: %d tablets", len(tt.set.live))
	}
	for _, dt := range tt.set.live {
		spanA := dt.rec.MinTs < weekA+clock.Day
		spanB := dt.rec.MaxTs > weekB-clock.Day
		if spanA && spanB {
			t.Errorf("tablet [%d, %d] spans both weeks", dt.rec.MinTs, dt.rec.MaxTs)
		}
	}
}

func TestMergePreservesTimespanOrdering(t *testing.T) {
	tt := newTestTable(t, Options{MergeDelay: clock.Second})
	now := tt.clk.Now()
	rng := rand.New(rand.NewSource(9))
	// Many small flushes at varying old timestamps.
	for k := int64(0); k < 12; k++ {
		ts := now - 50*clock.Day + rng.Int63n(20)*clock.Day
		fillAndFlush(t, tt, k*1000, 30, ts)
	}
	tt.clk.Advance(10 * clock.Day)
	if _, err := tt.MergeUntilStable(); err != nil {
		t.Fatal(err)
	}
	tt.mu.Lock()
	defer tt.mu.Unlock()
	for i := 1; i < len(tt.set.live); i++ {
		if tt.set.live[i-1].rec.MinTs > tt.set.live[i].rec.MinTs {
			t.Fatal("disk tablets out of timespan order after merging")
		}
	}
}

func TestMergeRespectsMaxTabletSize(t *testing.T) {
	tt := newTestTable(t, Options{MergeDelay: clock.Second, MaxTabletSize: 4096})
	now := tt.clk.Now()
	for k := int64(0); k < 6; k++ {
		fillAndFlush(t, tt, k*100, 60, now-clock.Hour)
	}
	tt.clk.Advance(2 * clock.Second)
	if _, err := tt.MergeUntilStable(); err != nil {
		t.Fatal(err)
	}
	tt.mu.Lock()
	defer tt.mu.Unlock()
	for _, dt := range tt.set.live {
		// Allow slack: the cap applies to the sum of input sizes, and
		// merged output can differ slightly from that sum.
		if dt.rec.Bytes > 8192 {
			t.Errorf("merged tablet of %d bytes exceeds cap", dt.rec.Bytes)
		}
	}
}

// TestMergeLogarithmicTabletCount verifies the appendix's first claim: when
// no more merges apply, the number of tablets in a period is O(log T).
func TestMergeLogarithmicTabletCount(t *testing.T) {
	tt := newTestTable(t, Options{MergeDelay: 1, MaxTabletSize: 1 << 40})
	now := tt.clk.Now()
	ts := now - 60*clock.Day // one old week, single period
	const flushes = 40
	rng := rand.New(rand.NewSource(4))
	total := int64(0)
	for k := 0; k < flushes; k++ {
		n := 10 + rng.Int63n(90)
		for i := int64(0); i < n; i++ {
			mustInsert(t, tt.Table, usageRow(1, total+i, ts+total+i, 0, 0))
		}
		total += n
		if err := tt.FlushAll(); err != nil {
			t.Fatal(err)
		}
		tt.clk.Advance(clock.Second)
		if _, err := tt.MergeUntilStable(); err != nil {
			t.Fatal(err)
		}
	}
	got := tt.DiskTabletCount()
	bound := int(3*math.Log2(float64(total))) + 3
	if got > bound {
		t.Errorf("stable tablet count %d exceeds O(log T) bound %d for %d rows", got, bound, total)
	}
	// No merges left and the invariant |t_i| > 2|t_{i+1}| holds.
	tt.mu.Lock()
	defer tt.mu.Unlock()
	for i := 0; i+1 < len(tt.set.live); i++ {
		if tt.set.live[i].rec.Bytes <= 2*tt.set.live[i+1].rec.Bytes {
			t.Errorf("tablets %d,%d still mergeable: %d <= 2*%d",
				i, i+1, tt.set.live[i].rec.Bytes, tt.set.live[i+1].rec.Bytes)
		}
	}
}

// TestMergeLogarithmicRewrites verifies the appendix's second claim: no row
// is rewritten more than O(log T) times.
func TestMergeLogarithmicRewrites(t *testing.T) {
	tt := newTestTable(t, Options{MergeDelay: 1, MaxTabletSize: 1 << 40})
	now := tt.clk.Now()
	ts := now - 60*clock.Day
	const flushes = 50
	const perFlush = 64
	for k := int64(0); k < flushes; k++ {
		for i := int64(0); i < perFlush; i++ {
			mustInsert(t, tt.Table, usageRow(1, k*perFlush+i, ts+k*perFlush+i, 0, 0))
		}
		if err := tt.FlushAll(); err != nil {
			t.Fatal(err)
		}
		tt.clk.Advance(clock.Second)
		if _, err := tt.MergeUntilStable(); err != nil {
			t.Fatal(err)
		}
	}
	total := int64(flushes * perFlush)
	s := tt.Stats().Snapshot()
	// Average rewrites per row must be O(log T).
	avg := float64(s.RowsRewritten) / float64(total)
	bound := 2*math.Log2(float64(total)) + 2
	if avg > bound {
		t.Errorf("average rewrites per row %.1f exceeds O(log T) bound %.1f", avg, bound)
	}
	if s.Merges == 0 {
		t.Error("no merges happened; test is vacuous")
	}
}

func TestMergeDropsExpiredRows(t *testing.T) {
	tt := newTestTable(t, Options{MergeDelay: 1})
	now := tt.clk.Now()
	if err := tt.AlterTTL(10 * clock.Day); err != nil {
		t.Fatal(err)
	}
	old := now - 9*clock.Day // near expiry
	fillAndFlush(t, tt, 0, 50, old)
	fillAndFlush(t, tt, 100, 50, old+clock.Minute)
	// Advance so the rows are expired but the tablet's period has long
	// rolled over (merge allowed).
	tt.clk.Advance(5 * clock.Day)
	if _, err := tt.MergeUntilStable(); err != nil {
		t.Fatal(err)
	}
	rows := queryBox(t, tt.Table, NewQuery())
	if len(rows) != 0 {
		t.Errorf("expired rows still returned: %d", len(rows))
	}
	// The merged tablet should contain zero rows (all dropped).
	tt.mu.Lock()
	var live int64
	for _, dt := range tt.set.live {
		live += dt.rec.RowCount
	}
	tt.mu.Unlock()
	if live != 0 {
		t.Errorf("merge kept %d expired rows", live)
	}
}

func TestMergeWriteAmplificationBounded(t *testing.T) {
	// Figure 3's analysis: with a high insert rate the equilibrium write
	// amplification is about 2. Simulate steady flushes and check the
	// cumulative amplification stays modest.
	tt := newTestTable(t, Options{MergeDelay: 1, MaxTabletSize: 1 << 20})
	now := tt.clk.Now()
	ts := now - 60*clock.Day
	for k := int64(0); k < 60; k++ {
		for i := int64(0); i < 50; i++ {
			mustInsert(t, tt.Table, usageRow(1, k*50+i, ts+k*50+i, 0, 0))
		}
		if err := tt.FlushAll(); err != nil {
			t.Fatal(err)
		}
		tt.clk.Advance(clock.Second)
		if _, err := tt.MergeUntilStable(); err != nil {
			t.Fatal(err)
		}
	}
	s := tt.Stats().Snapshot()
	wa := s.WriteAmplification()
	if wa > 8 {
		t.Errorf("write amplification %.1f is far above the paper's ~2-4 range", wa)
	}
	if wa < 1 {
		t.Errorf("write amplification %.1f < 1 is impossible", wa)
	}
}

func TestMergeWithConcurrentQuery(t *testing.T) {
	// An open iterator must keep returning correct rows even when its
	// tablets are merged away beneath it (refcounted drop).
	tt := newTestTable(t, Options{MergeDelay: 1})
	now := tt.clk.Now()
	fillAndFlush(t, tt, 0, 100, now-clock.Hour)
	fillAndFlush(t, tt, 100, 100, now-clock.Hour+200)
	it, err := tt.Query(NewQuery())
	if err != nil {
		t.Fatal(err)
	}
	// Merge while the iterator is open.
	tt.clk.Advance(2 * clock.Second)
	if _, err := tt.MergeUntilStable(); err != nil {
		t.Fatal(err)
	}
	n := 0
	for it.Next() {
		n++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	it.Close()
	if n != 200 {
		t.Fatalf("iterator under merge returned %d rows", n)
	}
	// New query sees the merged layout.
	rows := queryBox(t, tt.Table, NewQuery())
	if len(rows) != 200 {
		t.Fatalf("post-merge query returned %d rows", len(rows))
	}
}

func TestRolloverDelaySpreadsMerges(t *testing.T) {
	// Two tablets in yesterday's day-period: merging must wait for the
	// pseudorandom fraction of a day past the period end.
	tt := newTestTable(t, Options{MergeDelay: 1})
	now := tt.clk.Now()
	yesterday := ((now / clock.Day) - 1) * clock.Day
	fillAndFlush(t, tt, 0, 50, yesterday+clock.Hour)
	fillAndFlush(t, tt, 100, 50, yesterday+2*clock.Hour)
	tt.clk.Advance(2 * clock.Second)
	// Right now the period [yesterday, yesterday+1d) ended at most 1 day
	// ago; the delay is a fraction of one day past period end. Advancing a
	// full day guarantees eligibility regardless of the fraction.
	before, err := tt.MergeStep()
	if err != nil {
		t.Fatal(err)
	}
	tt.clk.Advance(clock.Day + clock.Hour)
	after, err := tt.MergeStep()
	if err != nil {
		t.Fatal(err)
	}
	if !before && !after {
		t.Error("merge never became eligible after rollover delay")
	}
}
