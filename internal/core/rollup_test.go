package core

import (
	"fmt"
	"sync"
	"testing"

	"littletable/internal/agg"
	"littletable/internal/clock"
	"littletable/internal/ltval"
	"littletable/internal/vfs"
)

// usageRollupRule aggregates the usage test schema per network per
// minute: row count, sum of seq (int64, exactly checkable), max of rate.
func usageRollupRule() RollupRule {
	return RollupRule{
		Dest:        "usage_1m",
		BucketWidth: clock.Minute,
		GroupCols:   1, // network
		Aggs: []agg.Agg{
			{Func: agg.Count},
			{Func: agg.Sum, Col: "seq"},
			{Func: agg.Max, Col: "rate"},
		},
	}
}

// rollupExpect is the exact destination row a (network, bucket) group
// must materialize as.
type rollupExpect struct {
	count, sumSeq int64
	maxRate       float64
}

// populateRollupSrc inserts rowsPerGroup rows for every (network,
// bucket) pair and returns the exact expected destination contents.
// seq is globally increasing so sums differ per group.
func populateRollupSrc(t *testing.T, src *Table, networks, buckets, rowsPerGroup int, base int64) map[string]rollupExpect {
	t.Helper()
	want := make(map[string]rollupExpect)
	seq := int64(0)
	for b := 0; b < buckets; b++ {
		for n := 1; n <= networks; n++ {
			k := fmt.Sprintf("%d|%d", n, base+int64(b)*clock.Minute)
			e := want[k]
			for d := 0; d < rowsPerGroup; d++ {
				ts := base + int64(b)*clock.Minute + int64(d)
				rate := float64(n*10 + b + d)
				mustInsert(t, src, usageRow(int64(n), int64(d), ts, rate, seq))
				e.count++
				e.sumSeq += seq
				if rate > e.maxRate || e.count == 1 {
					e.maxRate = rate
				}
				seq++
			}
			want[k] = e
		}
	}
	return want
}

// checkRollupDest verifies every destination row exactly equals the
// expected final aggregate for its group — a torn or double-counted
// bucket shows up as a wrong count/sum — and that no group appears
// twice. complete additionally requires every expected group present.
func checkRollupDest(t *testing.T, label string, dest *Table, want map[string]rollupExpect, complete bool) {
	t.Helper()
	rows, err := dest.QueryAll(NewQuery())
	if err != nil {
		t.Fatalf("%s: dest query: %v", label, err)
	}
	seen := make(map[string]bool)
	for _, row := range rows {
		// Dest layout: network, ts, count, sum_seq, max_rate.
		k := fmt.Sprintf("%d|%d", row[0].Int, row[1].Int)
		if seen[k] {
			t.Fatalf("%s: group %s materialized twice", label, k)
		}
		seen[k] = true
		e, ok := want[k]
		if !ok {
			t.Fatalf("%s: unexpected dest group %s", label, k)
		}
		if row[2].Int != e.count || row[3].Int != e.sumSeq || row[4].Float != e.maxRate {
			t.Fatalf("%s: group %s = (count %d, sum %d, max %g), want (%d, %d, %g) — torn or double-counted bucket",
				label, k, row[2].Int, row[3].Int, row[4].Float, e.count, e.sumSeq, e.maxRate)
		}
	}
	if complete && len(rows) != len(want) {
		t.Fatalf("%s: dest has %d groups, want %d", label, len(rows), len(want))
	}
}

func TestRollupDestSchema(t *testing.T) {
	rule := usageRollupRule()
	sc, err := rule.DestSchema(usageSchema())
	if err != nil {
		t.Fatal(err)
	}
	wantCols := []string{"network", "ts", "count", "sum_seq", "max_rate"}
	if len(sc.Columns) != len(wantCols) {
		t.Fatalf("dest schema has %d columns, want %d", len(sc.Columns), len(wantCols))
	}
	for i, name := range wantCols {
		if sc.Columns[i].Name != name {
			t.Fatalf("column %d = %q, want %q", i, sc.Columns[i].Name, name)
		}
	}
	wantTypes := []ltval.Type{ltval.Int64, ltval.Timestamp, ltval.Int64, ltval.Int64, ltval.Double}
	for i, ty := range wantTypes {
		if sc.Columns[i].Type != ty {
			t.Fatalf("column %q type = %v, want %v", sc.Columns[i].Name, sc.Columns[i].Type, ty)
		}
	}
	if sc.KeyLen() != 2 {
		t.Fatalf("dest key length %d, want 2 (network, ts)", sc.KeyLen())
	}
}

func TestSetRollupsValidatesAndPersists(t *testing.T) {
	dir := t.TempDir()
	clk := clock.NewFake(testStart)
	tab, err := CreateTable(dir, "usage", usageSchema(), 0, Options{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	bad := usageRollupRule()
	bad.Aggs = []agg.Agg{{Func: agg.Sum, Col: "nope"}}
	if err := tab.SetRollups([]RollupRule{bad}); err == nil {
		t.Fatal("rule over unknown column accepted")
	}
	self := usageRollupRule()
	self.Dest = "usage"
	if err := tab.SetRollups([]RollupRule{self}); err == nil {
		t.Fatal("self-referential rule accepted")
	}
	rule := usageRollupRule()
	if err := tab.SetRollups([]RollupRule{rule}); err != nil {
		t.Fatal(err)
	}
	if err := tab.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenTable(dir, "usage", Options{Clock: clock.NewFake(clk.Now())})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := re.Rollups()
	if len(got) != 1 || got[0].Dest != "usage_1m" || got[0].BucketWidth != clock.Minute || len(got[0].Aggs) != 3 {
		t.Fatalf("rules did not survive reopen: %+v", got)
	}
}

// TestRollupStepWatermark runs two passes with the finality horizon
// advancing between them: the first must materialize only the buckets
// already final, the second only the newly final remainder, and a third
// pass with nothing new must write nothing — the exactly-once contract
// in the steady state.
func TestRollupStepWatermark(t *testing.T) {
	dir := t.TempDir()
	clk := clock.NewFake(testStart)
	opts := Options{Clock: clk, Logf: quietLogf}
	src, err := CreateTable(dir, "usage", usageSchema(), 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	rule := usageRollupRule()
	rule.Lag = clock.Minute
	spec := rule.Spec()
	destSc, err := rule.DestSchema(src.Schema())
	if err != nil {
		t.Fatal(err)
	}
	dest, err := CreateTable(dir, rule.Dest, destSc, rule.TTL, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer dest.Close()

	const networks, buckets, per = 2, 6, 3
	base := spec.BucketStart(testStart - clock.Hour)
	want := populateRollupSrc(t, src, networks, buckets, per, base)

	// now1: buckets 0..3 final (bucket 4 ends at base+5m > now1-Lag).
	now1 := base + 5*clock.Minute
	w1, err := RollupStep(src, dest, rule, now1)
	if err != nil {
		t.Fatal(err)
	}
	if w1 != networks*4 {
		t.Fatalf("pass 1 wrote %d rows, want %d", w1, networks*4)
	}
	partial := make(map[string]rollupExpect)
	for b := 0; b < 4; b++ {
		for n := 1; n <= networks; n++ {
			k := fmt.Sprintf("%d|%d", n, base+int64(b)*clock.Minute)
			partial[k] = want[k]
		}
	}
	checkRollupDest(t, "pass 1", dest, partial, true)

	// now2: everything final.
	now2 := base + int64(buckets+1)*clock.Minute
	w2, err := RollupStep(src, dest, rule, now2)
	if err != nil {
		t.Fatal(err)
	}
	if w2 != networks*(buckets-4) {
		t.Fatalf("pass 2 wrote %d rows, want %d", w2, networks*(buckets-4))
	}
	checkRollupDest(t, "pass 2", dest, want, true)

	w3, err := RollupStep(src, dest, rule, now2)
	if err != nil {
		t.Fatal(err)
	}
	if w3 != 0 {
		t.Fatalf("steady-state pass wrote %d rows, want 0", w3)
	}
	checkRollupDest(t, "pass 3", dest, want, true)

	if runs := src.Stats().RollupRuns.Load(); runs != 2 {
		t.Fatalf("RollupRuns = %d, want 2 (third pass wrote nothing)", runs)
	}
	if n := src.Stats().RollupRowsWritten.Load(); n != int64(networks*buckets) {
		t.Fatalf("RollupRowsWritten = %d, want %d", n, networks*buckets)
	}
}

// TestWatermark pins the newest-timestamp probe RollupStep and the
// internal/apps/agg aggregators resume from: nothing on an empty table,
// an old row found however far back it lies, and a newer row dominating.
func TestWatermark(t *testing.T) {
	clk := clock.NewFake(testStart)
	tab, err := CreateTable(t.TempDir(), "usage", usageSchema(), 0, Options{Clock: clk, Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	now := clk.Now()
	if _, found, err := Watermark(tab, now); err != nil || found {
		t.Fatalf("empty table: found %v, err %v", found, err)
	}
	old := now - 20*clock.Hour
	mustInsert(t, tab, usageRow(1, 1, old, 1, 0))
	if ts, found, err := Watermark(tab, now); err != nil || !found || ts != old {
		t.Fatalf("found %v ts %d err %v, want %d", found, ts, err, old)
	}
	newer := now - 3*clock.Minute
	mustInsert(t, tab, usageRow(1, 1, newer, 1, 1))
	if ts, _, err := Watermark(tab, now); err != nil || ts != newer {
		t.Fatalf("latest = %d (err %v), want %d", ts, err, newer)
	}
}

// TestRollupCrashAtEveryBarrier is the kill test for continuous
// downsampling: a fully populated source rolls up into a destination
// whose tiny flush size and async workers force durability barriers in
// the middle of the rollup's insert stream, and the harness takes a
// crash image at every one. Each image must reopen to a destination
// with no torn rollup row and no double-counted bucket (every present
// row exactly equals its final aggregate), and re-running the rollup on
// the recovered pair must converge to exactly the full expected
// contents — the watermark re-derivation plus primary-key-idempotent
// replay is the mechanism under test.
func TestRollupCrashAtEveryBarrier(t *testing.T) {
	mem := vfs.NewMem()
	clk := clock.NewFake(testStart)
	srcOpts := Options{Clock: clk, FS: mem, SyncWrites: true, Logf: quietLogf}
	src, err := CreateTable("/db", "usage", usageSchema(), 0, srcOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	rule := usageRollupRule()
	spec := rule.Spec()
	destSc, err := rule.DestSchema(src.Schema())
	if err != nil {
		t.Fatal(err)
	}
	// Tiny flush size + async workers: rollup inserts seal and flush
	// mid-stream, so barriers — and crash images — land inside a pass.
	destOpts := Options{Clock: clk, FS: mem, SyncWrites: true, Logf: quietLogf,
		FlushWorkers: 2, FlushSize: 256}
	dest, err := CreateTable("/db", rule.Dest, destSc, rule.TTL, destOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer dest.Close()

	const networks, buckets, per = 3, 6, 4
	base := spec.BucketStart(testStart - clock.Hour)
	want := populateRollupSrc(t, src, networks, buckets, per, base)
	if err := src.FlushAll(); err != nil {
		t.Fatal(err)
	}

	// Snapshot every durability barrier from here on: the source is
	// durable, so every image captures the rollup path mid-write.
	type snap struct {
		fs       *vfs.MemFS
		op, path string
	}
	var snapMu sync.Mutex
	var snaps []snap
	mem.SetBarrierHook(func(op, path string) {
		c := mem.CrashClone()
		snapMu.Lock()
		snaps = append(snaps, snap{fs: c, op: op, path: path})
		snapMu.Unlock()
	})

	// Two passes with the horizon advancing, so the second pass probes a
	// non-empty destination watermark under the barrier hook too.
	now1 := base + 5*clock.Minute // buckets 0..4 final (Lag 0)
	if _, err := RollupStep(src, dest, rule, now1); err != nil {
		t.Fatal(err)
	}
	if err := dest.FlushAll(); err != nil {
		t.Fatal(err)
	}
	nowFinal := base + int64(buckets)*clock.Minute
	if _, err := RollupStep(src, dest, rule, nowFinal); err != nil {
		t.Fatal(err)
	}
	if err := dest.FlushAll(); err != nil {
		t.Fatal(err)
	}
	mem.SetBarrierHook(nil)
	snaps = append(snaps, snap{fs: mem.CrashClone(), op: "final", path: ""})
	if len(snaps) < 5 {
		t.Fatalf("rollup produced only %d durability barriers; not exercising the harness", len(snaps))
	}

	for i, s := range snaps {
		label := fmt.Sprintf("crash %d/%d after %s %s", i+1, len(snaps), s.op, s.path)
		reOpts := Options{Clock: clock.NewFake(nowFinal), FS: s.fs, SyncWrites: true, Logf: quietLogf}
		reSrc, err := OpenTable("/db", "usage", reOpts)
		if err != nil {
			t.Fatalf("%s: reopen src: %v", label, err)
		}
		reDest, err := OpenTable("/db", rule.Dest, reOpts)
		if err != nil {
			reSrc.Close()
			t.Fatalf("%s: reopen dest: %v", label, err)
		}
		if q := reDest.Stats().TabletsQuarantined.Load(); q != 0 {
			t.Fatalf("%s: %d dest tablets quarantined after a pure power cut", label, q)
		}
		// Whatever survived must already be exact — a crash may lose
		// trailing rows, never tear or double-count one.
		checkRollupDest(t, label+" (recovered)", reDest, want, false)
		// Recovery: one more pass must converge to exactly the full set.
		if _, err := RollupStep(reSrc, reDest, rule, nowFinal); err != nil {
			t.Fatalf("%s: recovery rollup: %v", label, err)
		}
		checkRollupDest(t, label+" (resumed)", reDest, want, true)
		reDest.Close()
		reSrc.Close()
	}
}

// TestRollupSumSaturationSurvivesRollup pins saturating semantics end to
// end: a group whose int64 sum overflows materializes the sticky clamp,
// not a wrapped number.
func TestRollupSumSaturation(t *testing.T) {
	dir := t.TempDir()
	clk := clock.NewFake(testStart)
	opts := Options{Clock: clk, Logf: quietLogf}
	src, err := CreateTable(dir, "usage", usageSchema(), 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	rule := usageRollupRule()
	spec := rule.Spec()
	destSc, err := rule.DestSchema(src.Schema())
	if err != nil {
		t.Fatal(err)
	}
	dest, err := CreateTable(dir, rule.Dest, destSc, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer dest.Close()
	base := spec.BucketStart(testStart - clock.Hour)
	huge := int64(1) << 62
	for d := int64(0); d < 4; d++ {
		mustInsert(t, src, usageRow(1, d, base+d, 1.0, huge))
	}
	if _, err := RollupStep(src, dest, rule, base+2*clock.Minute); err != nil {
		t.Fatal(err)
	}
	rows, err := dest.QueryAll(NewQuery())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("%d dest rows, want 1", len(rows))
	}
	if got := rows[0][3].Int; got != int64(^uint64(0)>>1) { // MaxInt64
		t.Fatalf("overflowed sum materialized %d, want saturated MaxInt64", got)
	}
}
