// Integration tests for the §4 application daemons running against real
// in-process tables with a fake clock and a simulated device fleet.
package apps_test

import (
	"fmt"
	"sync"
	"testing"

	"littletable/internal/apps/agg"
	"littletable/internal/apps/events"
	"littletable/internal/apps/motion"
	"littletable/internal/apps/usage"
	"littletable/internal/clock"
	"littletable/internal/configdb"
	"littletable/internal/core"
	"littletable/internal/devicesim"
	"littletable/internal/schema"
	"littletable/internal/vfs"
)

const start = 1_782_018_420 * clock.Second

type world struct {
	clk   *clock.Fake
	fleet *devicesim.Fleet
	cfg   *configdb.DB
	dir   string
	t     *testing.T
}

func newWorld(t *testing.T) *world {
	t.Helper()
	clk := clock.NewFake(start)
	return &world{
		clk:   clk,
		fleet: devicesim.NewFleet(clk, 99),
		cfg:   configdb.New(),
		dir:   t.TempDir(),
		t:     t,
	}
}

func (w *world) advance(d int64) {
	w.clk.Advance(d)
	w.fleet.AdvanceAll()
}

func (w *world) table(name string, sc *schema.Schema) *core.Table {
	w.t.Helper()
	tab, err := core.CreateTable(w.dir, name, sc, 0, core.Options{Clock: w.clk})
	if err != nil {
		w.t.Fatal(err)
	}
	w.t.Cleanup(func() { tab.Close() })
	return tab
}

func TestUsageGrabberEndToEnd(t *testing.T) {
	w := newWorld(t)
	for i := int64(1); i <= 5; i++ {
		w.fleet.AddDevice(i, 100+(i%2), "access_point")
	}
	tab := w.table("usage", usage.Schema())
	g := usage.New(tab, w.fleet, w.clk)

	// First poll: caches only, no rows.
	if err := g.Poll(); err != nil {
		t.Fatal(err)
	}
	if g.RowsInserted != 0 {
		t.Fatalf("first poll inserted %d rows", g.RowsInserted)
	}
	// Subsequent polls produce one row per device per poll.
	for i := 0; i < 10; i++ {
		w.advance(clock.Minute)
		if err := g.Poll(); err != nil {
			t.Fatal(err)
		}
	}
	if g.RowsInserted != 50 {
		t.Fatalf("inserted %d rows, want 50", g.RowsInserted)
	}
	rows, err := tab.QueryAll(core.NewQuery())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 50 {
		t.Fatalf("stored %d rows", len(rows))
	}
	for _, r := range rows {
		rate := r[5].Float
		if rate <= 0 {
			t.Fatalf("non-positive rate: %v", r)
		}
		if r[2].Int-r[3].Int != clock.Minute {
			t.Fatalf("sample interval wrong: %v", r)
		}
	}
}

func TestUsageGrabberGapHandling(t *testing.T) {
	w := newWorld(t)
	dev := w.fleet.AddDevice(1, 100, "access_point")
	tab := w.table("usage", usage.Schema())
	g := usage.New(tab, w.fleet, w.clk)
	g.Poll()
	w.advance(clock.Minute)
	g.Poll() // one row
	// Short unavailability (< T): proceeds as normal on return.
	dev.SetOnline(false)
	w.advance(5 * clock.Minute)
	g.Poll() // no row
	dev.SetOnline(true)
	w.advance(clock.Minute)
	g.Poll() // row covering the 6-minute interval
	if g.RowsInserted != 2 {
		t.Fatalf("after short gap: %d rows", g.RowsInserted)
	}
	// Long unavailability (> T): no row; treated like first contact.
	dev.SetOnline(false)
	w.advance(2 * clock.Hour)
	g.Poll()
	dev.SetOnline(true)
	w.advance(clock.Minute)
	before := g.RowsInserted
	g.Poll()
	if g.RowsInserted != before {
		t.Fatal("row inserted across a gap longer than T")
	}
	if g.GapsSkipped == 0 {
		t.Fatal("gap not accounted")
	}
	// Next poll resumes normal rows.
	w.advance(clock.Minute)
	g.Poll()
	if g.RowsInserted != before+1 {
		t.Fatal("did not resume after long gap")
	}
}

func TestUsageGrabberCrashRecovery(t *testing.T) {
	w := newWorld(t)
	for i := int64(1); i <= 3; i++ {
		w.fleet.AddDevice(i, 100, "access_point")
	}
	tab := w.table("usage", usage.Schema())
	g := usage.New(tab, w.fleet, w.clk)
	g.Poll()
	for i := 0; i < 5; i++ {
		w.advance(clock.Minute)
		g.Poll()
	}
	// "Crash": new grabber, rebuild cache from LittleTable (§4.1.1).
	g2 := usage.New(tab, w.fleet, w.clk)
	if err := g2.RebuildCache(); err != nil {
		t.Fatal(err)
	}
	if g2.CacheLen() != 3 {
		t.Fatalf("rebuilt cache has %d entries", g2.CacheLen())
	}
	ts, _, ok := g2.CachedSample(1)
	if !ok || ts != w.clk.Now() {
		t.Fatalf("rebuilt sample ts = %d, want %d", ts, w.clk.Now())
	}
	// Recovered grabber keeps producing rows seamlessly.
	w.advance(clock.Minute)
	if err := g2.Poll(); err != nil {
		t.Fatal(err)
	}
	if g2.RowsInserted != 3 {
		t.Fatalf("post-recovery poll inserted %d", g2.RowsInserted)
	}
}

func TestEventsGrabberEndToEnd(t *testing.T) {
	w := newWorld(t)
	for i := int64(1); i <= 3; i++ {
		w.fleet.AddDevice(i, 200, "access_point")
	}
	tab := w.table("events", events.Schema())
	g := events.New(tab, w.fleet, w.clk)
	w.advance(4 * clock.Hour)
	if err := g.Poll(); err != nil {
		t.Fatal(err)
	}
	if g.RowsInserted == 0 {
		t.Fatal("no events stored after 4 hours")
	}
	// Every stored event id matches the device's view.
	rows, err := tab.QueryAll(core.NewQuery())
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(rows)) != g.RowsInserted {
		t.Fatalf("stored %d, inserted %d", len(rows), g.RowsInserted)
	}
	// Second poll after more activity fetches only the new events.
	before := g.RowsInserted
	w.advance(clock.Hour)
	if err := g.Poll(); err != nil {
		t.Fatal(err)
	}
	rows2, _ := tab.QueryAll(core.NewQuery())
	if int64(len(rows2)) != g.RowsInserted || g.RowsInserted <= before {
		t.Fatal("incremental poll wrong")
	}
}

func TestEventsGrabberRestartRecovery(t *testing.T) {
	w := newWorld(t)
	dev := w.fleet.AddDevice(1, 200, "access_point")
	tab := w.table("events", events.Schema())
	g := events.New(tab, w.fleet, w.clk)
	w.advance(3 * clock.Hour)
	g.Poll()
	want, _ := g.CachedID(1)
	if want == 0 {
		t.Skip("no events for this seed")
	}
	// Restart with recent data in the window.
	g2 := events.New(tab, w.fleet, w.clk)
	if err := g2.RebuildCache(); err != nil {
		t.Fatal(err)
	}
	got, _ := g2.CachedID(1)
	if got != want {
		t.Fatalf("recovered id %d, want %d", got, want)
	}
	// No duplicate insert errors on the next poll.
	w.advance(clock.Hour)
	if err := g2.Poll(); err != nil {
		t.Fatal(err)
	}
	_ = dev
}

func TestEventsGrabberDeepRecovery(t *testing.T) {
	// Device last heard from long before the recovery window: the grabber
	// must fall back to the latest-row-for-prefix search (§4.2).
	w := newWorld(t)
	w.fleet.AddDevice(1, 200, "access_point")
	tab := w.table("events", events.Schema())
	g := events.New(tab, w.fleet, w.clk)
	w.advance(3 * clock.Hour)
	g.Poll()
	want, _ := g.CachedID(1)
	if want == 0 {
		t.Skip("no events for this seed")
	}
	if err := tab.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// A very long quiet gap, far beyond the recovery window. Freeze the
	// device so it generates nothing new.
	dev := w.fleet.Device(1)
	dev.SetOnline(false)
	w.clk.Advance(30 * clock.Day)
	dev.SetOnline(true)
	g2 := events.New(tab, w.fleet, w.clk)
	if err := g2.RebuildCache(); err != nil {
		t.Fatal(err)
	}
	got, _ := g2.CachedID(1)
	if got != want {
		t.Fatalf("deep recovery id %d, want %d", got, want)
	}
}

func TestEventsSentinels(t *testing.T) {
	w := newWorld(t)
	w.fleet.AddDevice(1, 200, "access_point")
	tab := w.table("events", events.Schema())
	g := events.New(tab, w.fleet, w.clk)
	g.SentinelPeriod = events.DefaultSentinelPeriod
	w.advance(3 * clock.Hour)
	g.Poll()
	rows, _ := tab.QueryAll(core.NewQuery())
	sentinels := 0
	for _, r := range rows {
		if string(r[4].Bytes) == events.SentinelType {
			sentinels++
		}
	}
	if sentinels == 0 {
		t.Fatal("no sentinel rows written")
	}
}

func TestMotionGrabberAndSearch(t *testing.T) {
	w := newWorld(t)
	w.fleet.AddDevice(1, 300, "camera")
	tab := w.table("motion", motion.Schema())
	g := motion.New(tab, w.fleet, w.clk)
	w.advance(2 * clock.Hour)
	if err := g.Poll(); err != nil {
		t.Fatal(err)
	}
	if g.RowsInserted == 0 {
		t.Fatal("no motion rows")
	}
	// Full-frame search matches everything (bounded).
	all, err := motion.SearchRect(tab, 1, 0, 0, devicesim.FrameWidth, devicesim.FrameHeight,
		start, w.clk.Now(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(all)) != g.RowsInserted {
		t.Fatalf("full-frame search: %d of %d", len(all), g.RowsInserted)
	}
	// Newest first.
	for i := 1; i < len(all); i++ {
		if all[i].Ts > all[i-1].Ts {
			t.Fatal("search results not newest-first")
		}
	}
	// A small rectangle matches a strict subset.
	small, err := motion.SearchRect(tab, 1, 0, 0, 96, 64, start, w.clk.Now(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(small) >= len(all) {
		t.Fatal("small rect matched as much as the full frame")
	}
	// Limit respected.
	few, _ := motion.SearchRect(tab, 1, 0, 0, devicesim.FrameWidth, devicesim.FrameHeight,
		start, w.clk.Now(), 3)
	if len(few) != 3 {
		t.Fatalf("limit: %d", len(few))
	}
	// Heatmap sums durations.
	hm, err := motion.Heatmap(tab, 1, start, w.clk.Now())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, rrow := range hm {
		for _, v := range rrow {
			total += v
		}
	}
	if total == 0 {
		t.Fatal("empty heatmap")
	}
}

// aggCase is one §4.1.2 aggregator over a populated source table.
type aggCase struct {
	name  string
	dstSc *schema.Schema
	// fill populates w's fleet and returns the source table.
	fill func(w *world) *core.Table
	// newAgg builds the aggregator; a restart calls it again over the
	// same destination.
	newAgg func(w *world, src, dst *core.Table) (run func() error, written *int64)
	// check inspects the destination after the first run.
	check func(t *testing.T, w *world, rows []schema.Row)
}

// pollUsage fills the usage table src from w's fleet, one poll a minute.
func pollUsage(w *world, src *core.Table, minutes int) *core.Table {
	g := usage.New(src, w.fleet, w.clk)
	g.Poll()
	for i := 0; i < minutes; i++ {
		w.advance(clock.Minute)
		if err := g.Poll(); err != nil {
			w.t.Fatal(err)
		}
	}
	return src
}

// tagFleet registers networks×tags access points, one tag each, in both
// the configdb and the fleet.
func tagFleet(w *world, networks int, tags ...string) {
	cust := w.cfg.AddCustomer("school")
	for n := 0; n < networks; n++ {
		net, err := w.cfg.AddNetwork(cust.ID, fmt.Sprintf("campus%d", n))
		if err != nil {
			w.t.Fatal(err)
		}
		for i, tag := range tags {
			d, err := w.cfg.AddDevice(net.ID, configdb.KindAccessPoint, fmt.Sprintf("ap%d", i), tag)
			if err != nil {
				w.t.Fatal(err)
			}
			w.fleet.AddDevice(d.ID, net.ID, "access_point")
		}
	}
}

var aggCases = []aggCase{
	{
		name:  "rollup",
		dstSc: agg.RollupSchema(),
		fill: func(w *world) *core.Table {
			for i := int64(1); i <= 4; i++ {
				w.fleet.AddDevice(i, 100+(i%2), "access_point")
			}
			return pollUsage(w, w.table("usage", usage.Schema()), 60) // an hour of minutes
		},
		newAgg: func(w *world, src, dst *core.Table) (func() error, *int64) {
			r := agg.NewRollup(src, dst, w.clk, start-clock.Day)
			return r.Run, &r.RowsWritten
		},
		check: func(t *testing.T, w *world, rows []schema.Row) {
			// Two networks × several complete 10-minute periods.
			if len(rows) < 4 {
				t.Fatalf("rollup rows: %d", len(rows))
			}
			for _, row := range rows {
				if row[1].Int%agg.DefaultPeriod != 0 {
					t.Fatal("rollup ts not period-aligned")
				}
				if row[2].Int <= 0 || row[3].Int <= 0 {
					t.Fatalf("rollup accumulated nothing: %v", row)
				}
			}
			// Periods newer than the persistence lag are withheld.
			latest := rows[len(rows)-1][1].Int
			if latest+agg.DefaultPeriod > w.clk.Now()-agg.DefaultPersistenceLag {
				t.Fatal("rollup processed a period inside the persistence lag")
			}
		},
	},
	{
		name:  "tag",
		dstSc: agg.TagSchema(),
		fill: func(w *world) *core.Table {
			tagFleet(w, 2, "classrooms", "playing-fields")
			return pollUsage(w, w.table("usage", usage.Schema()), 60)
		},
		newAgg: func(w *world, src, dst *core.Table) (func() error, *int64) {
			ta := agg.NewTagAggregator(src, dst, w.cfg, w.clk, start-clock.Day)
			return ta.Run, &ta.RowsWritten
		},
	},
	{
		name:  "hll",
		dstSc: agg.HLLSchema(),
		fill: func(w *world) *core.Table {
			for i := int64(1); i <= 4; i++ {
				w.fleet.AddDevice(i, 200, "access_point")
			}
			src := w.table("events", events.Schema())
			g := events.New(src, w.fleet, w.clk)
			for i := 0; i < 6; i++ {
				w.advance(clock.Hour)
				if err := g.Poll(); err != nil {
					w.t.Fatal(err)
				}
			}
			return src
		},
		newAgg: func(w *world, src, dst *core.Table) (func() error, *int64) {
			cc := agg.NewClientCounter(src, dst, w.clk, start-clock.Day)
			return cc.Run, &cc.RowsWritten
		},
	},
}

// TestRollupAggregator runs each aggregator, re-runs it idle, then
// restarts it over the same destination: the fresh aggregator resumes at
// the newest destination period (core.Watermark), regenerates that
// period's rows, and core.InsertTolerant must skip every one of them.
func TestRollupAggregator(t *testing.T) {
	for _, c := range aggCases {
		t.Run(c.name, func(t *testing.T) {
			w := newWorld(t)
			src := c.fill(w)
			dst := w.table("dst", c.dstSc)
			run, written := c.newAgg(w, src, dst)
			if err := run(); err != nil {
				t.Fatal(err)
			}
			if *written == 0 {
				t.Fatal("aggregator wrote nothing")
			}
			rows, err := dst.QueryAll(core.NewQuery())
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(rows)) != *written {
				t.Fatalf("destination holds %d rows, aggregator wrote %d", len(rows), *written)
			}
			if c.check != nil {
				c.check(t, w, rows)
			}
			// Idle re-run: the cached position is past every complete
			// period.
			before := *written
			if err := run(); err != nil {
				t.Fatal(err)
			}
			if *written != before {
				t.Fatal("idle re-run wrote rows")
			}
			// Restart.
			run2, written2 := c.newAgg(w, src, dst)
			if err := run2(); err != nil {
				t.Fatal(err)
			}
			if *written2 != 0 {
				t.Fatalf("restarted aggregator wrote %d rows over a complete destination", *written2)
			}
			after, err := dst.QueryAll(core.NewQuery())
			if err != nil {
				t.Fatal(err)
			}
			if !sameRows(rows, after) {
				t.Fatalf("restart changed the destination: %d rows before, %d after", len(rows), len(after))
			}
		})
	}
}

func sameRows(a, b []schema.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameRow(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameRow(a, b schema.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func quietLogf(string, ...interface{}) {}

// TestTagAggregatorCrashAtEveryBarrier crashes an external aggregator
// the way core's TestRollupCrashAtEveryBarrier crashes RollupStep. A
// durable usage source is aggregated by tag into a destination whose
// tiny flush size and async workers put durability barriers inside
// periods' inserts, and a crash image is taken at every barrier. Each
// image must reopen with no tablet quarantined and hold only rows equal
// to the reference run's; a fresh aggregator must then converge to the
// reference contents — it re-processes the newest surviving period, so
// one torn by the crash is filled in.
func TestTagAggregatorCrashAtEveryBarrier(t *testing.T) {
	w := newWorld(t)
	tagFleet(w, 2, "classrooms", "library", "playing-fields")
	mem := vfs.NewMem()
	opts := core.Options{Clock: w.clk, FS: mem, SyncWrites: true, Logf: quietLogf}
	src, err := core.CreateTable("/db", "usage", usage.Schema(), 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	dstOpts := opts
	dstOpts.FlushWorkers, dstOpts.FlushSize = 2, 128
	dst, err := core.CreateTable("/db", "usage_by_tag", agg.TagSchema(), 0, dstOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if err := pollUsage(w, src, 90).FlushAll(); err != nil {
		t.Fatal(err)
	}

	var snapMu sync.Mutex
	var snaps []*vfs.MemFS
	mem.SetBarrierHook(func(op, path string) {
		c := mem.CrashClone()
		snapMu.Lock()
		snaps = append(snaps, c)
		snapMu.Unlock()
	})
	ta := agg.NewTagAggregator(src, dst, w.cfg, w.clk, start)
	if err := ta.Run(); err != nil {
		t.Fatal(err)
	}
	if err := dst.FlushAll(); err != nil {
		t.Fatal(err)
	}
	mem.SetBarrierHook(nil)
	ref, err := dst.QueryAll(core.NewQuery())
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) < 12 || len(snaps) < 5 {
		t.Fatalf("%d reference rows, %d crash images: not exercising the harness", len(ref), len(snaps))
	}
	refByKey := make(map[string]schema.Row, len(ref))
	refPerPeriod := map[int64]int{}
	for _, row := range ref {
		refByKey[tagKey(row)] = row
		refPerPeriod[row[2].Int]++
	}
	torn := 0 // images holding part of a period

	for i, fs := range snaps {
		label := fmt.Sprintf("crash %d/%d", i+1, len(snaps))
		reOpts := core.Options{Clock: clock.NewFake(w.clk.Now()), FS: fs, SyncWrites: true, Logf: quietLogf}
		reSrc, err := core.OpenTable("/db", "usage", reOpts)
		if err != nil {
			t.Fatalf("%s: reopen src: %v", label, err)
		}
		reDst, err := core.OpenTable("/db", "usage_by_tag", reOpts)
		if err != nil {
			reSrc.Close()
			t.Fatalf("%s: reopen dst: %v", label, err)
		}
		if q := reSrc.Stats().TabletsQuarantined.Load() + reDst.Stats().TabletsQuarantined.Load(); q != 0 {
			t.Fatalf("%s: %d tablets quarantined after a pure power cut", label, q)
		}
		got, err := reDst.QueryAll(core.NewQuery())
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		perPeriod := map[int64]int{}
		for _, row := range got {
			if want, ok := refByKey[tagKey(row)]; !ok || !sameRow(row, want) {
				t.Fatalf("%s: surviving row %v, reference %v", label, row, want)
			}
			perPeriod[row[2].Int]++
		}
		for ts, n := range perPeriod {
			if n < refPerPeriod[ts] {
				torn++
				break
			}
		}
		if err := agg.NewTagAggregator(reSrc, reDst, w.cfg, reOpts.Clock, start).Run(); err != nil {
			t.Fatalf("%s: recovery run: %v", label, err)
		}
		got, err = reDst.QueryAll(core.NewQuery())
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !sameRows(got, ref) {
			t.Fatalf("%s: recovered destination differs from the reference: %d rows, want %d", label, len(got), len(ref))
		}
		reDst.Close()
		reSrc.Close()
	}
	if torn == 0 {
		t.Fatal("no crash image tore a period: not exercising the re-processed period")
	}
}

// tagKey is a TagSchema row's primary key.
func tagKey(row schema.Row) string {
	return fmt.Sprintf("%d|%s|%d", row[0].Int, row[1].Bytes, row[2].Int)
}

func TestRollupRecovery(t *testing.T) {
	w := newWorld(t)
	w.fleet.AddDevice(1, 100, "access_point")
	src := w.table("usage", usage.Schema())
	dst := w.table("usage_10m", agg.RollupSchema())
	g := usage.New(src, w.fleet, w.clk)
	g.Poll()
	for i := 0; i < 90; i++ {
		w.advance(clock.Minute)
		g.Poll()
	}
	r1 := agg.NewRollup(src, dst, w.clk, start-clock.Day)
	if err := r1.Run(); err != nil {
		t.Fatal(err)
	}
	// A fresh aggregator (restart) recovers its position from dst alone.
	r2 := agg.NewRollup(src, dst, w.clk, start-clock.Day)
	if err := r2.Recover(); err != nil {
		t.Fatal(err)
	}
	if r2.Next() == 0 || r2.Next() > r1.Next() {
		t.Fatalf("recovered position %d vs %d", r2.Next(), r1.Next())
	}
	// Continue: more source data, both converge.
	for i := 0; i < 30; i++ {
		w.advance(clock.Minute)
		g.Poll()
	}
	if err := r2.Run(); err != nil {
		t.Fatal(err)
	}
	if r2.Next() <= r1.Next() {
		t.Fatal("recovered aggregator made no progress")
	}
}

func TestTagAggregator(t *testing.T) {
	w := newWorld(t)
	cust := w.cfg.AddCustomer("school")
	net, _ := w.cfg.AddNetwork(cust.ID, "campus")
	d1, _ := w.cfg.AddDevice(net.ID, configdb.KindAccessPoint, "ap1", "classrooms")
	d2, _ := w.cfg.AddDevice(net.ID, configdb.KindAccessPoint, "ap2", "playing-fields")
	w.fleet.AddDevice(d1.ID, net.ID, "access_point")
	w.fleet.AddDevice(d2.ID, net.ID, "access_point")
	src := w.table("usage", usage.Schema())
	dst := w.table("usage_by_tag", agg.TagSchema())
	g := usage.New(src, w.fleet, w.clk)
	g.Poll()
	for i := 0; i < 40; i++ {
		w.advance(clock.Minute)
		g.Poll()
	}
	ta := agg.NewTagAggregator(src, dst, w.cfg, w.clk, start-clock.Day)
	if err := ta.Run(); err != nil {
		t.Fatal(err)
	}
	rows, _ := dst.QueryAll(core.NewQuery())
	if len(rows) == 0 {
		t.Fatal("tag aggregation produced nothing")
	}
	tags := map[string]bool{}
	for _, r := range rows {
		tags[string(r[1].Bytes)] = true
		if r[3].Int <= 0 {
			t.Fatalf("zero bytes for tag row %v", r)
		}
	}
	if !tags["classrooms"] || !tags["playing-fields"] {
		t.Fatalf("tags seen: %v", tags)
	}
}

func TestClientCounter(t *testing.T) {
	w := newWorld(t)
	for i := int64(1); i <= 4; i++ {
		w.fleet.AddDevice(i, 200, "access_point")
	}
	src := w.table("events", events.Schema())
	dst := w.table("clients_hll", agg.HLLSchema())
	g := events.New(src, w.fleet, w.clk)
	for i := 0; i < 6; i++ {
		w.advance(clock.Hour)
		g.Poll()
	}
	cc := agg.NewClientCounter(src, dst, w.clk, start-clock.Day)
	if err := cc.Run(); err != nil {
		t.Fatal(err)
	}
	if cc.RowsWritten == 0 {
		t.Fatal("client counter wrote nothing: seed 99 produces events")
	}
	n, err := agg.DistinctClients(dst, 200, start, w.clk.Now())
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("distinct clients = 0")
	}
}

func TestRollupWithExplicitFlush(t *testing.T) {
	// With UseFlush (the §4.1.2 flush command), the aggregator processes
	// right up to the current period boundary instead of holding back the
	// 20-minute persistence lag — and the source rows it consumed are
	// actually on disk.
	w := newWorld(t)
	w.fleet.AddDevice(1, 100, "access_point")
	src := w.table("usage", usage.Schema())
	dst := w.table("usage_10m", agg.RollupSchema())
	g := usage.New(src, w.fleet, w.clk)
	g.Poll()
	for i := 0; i < 35; i++ {
		w.advance(clock.Minute)
		g.Poll()
	}
	lagged := agg.NewRollup(src, dst, w.clk, start-clock.Day)
	if err := lagged.Run(); err != nil {
		t.Fatal(err)
	}
	laggedNext := lagged.Next()

	dst2 := w.table("usage_10m_flush", agg.RollupSchema())
	flushed := agg.NewRollup(src, dst2, w.clk, start-clock.Day)
	flushed.UseFlush = true
	if err := flushed.Run(); err != nil {
		t.Fatal(err)
	}
	if flushed.Next() <= laggedNext {
		t.Fatalf("UseFlush did not advance past the lag: %d vs %d", flushed.Next(), laggedNext)
	}
	if src.DiskTabletCount() == 0 {
		t.Fatal("explicit flush left source rows in memory")
	}
}
