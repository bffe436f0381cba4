package core

import (
	"fmt"
	"sort"
	"testing"

	"littletable/internal/clock"
	"littletable/internal/ltval"
	"littletable/internal/race"
	"littletable/internal/schema"
)

// TestMergeEqualKeysNewestWins holds copies of the same keys in four
// sources at once: two flushed tablets, a sealed memtable and a filling
// one, each copy carrying its generation (0 oldest, 3 newest) in rate and
// seq. Insert's uniqueness check makes that impossible, so the later
// copies go straight into the memtables through applyChunk. Every read
// must return each key once, from the newest source that holds it: Query
// in both directions and under a Limit, LatestRow, and the one tablet
// MergeUntilStable leaves once all four sources are flushed.
func TestMergeEqualKeysNewestWins(t *testing.T) {
	tt := newTestTable(t, Options{MergeDelay: 1})
	sc := tt.Schema()
	now := tt.clk.Now()
	base := now - clock.Hour
	const n, devices, gens = 60, 4, 4
	// Key i is missing from generation i%5-1 only, so a fifth of the keys
	// are in all four sources and the rest in three; key 0 is in every
	// source, which gives every tablet the same MinTs. The last key is in
	// the filling memtable alone: it gives the newest source the highest
	// MaxTs, so LatestRow's newest-span-first order is not its age order.
	has := func(i, g int) bool {
		if i == n-1 {
			return g == gens-1
		}
		return i%5 != g+1
	}
	row := func(i, g int) schema.Row {
		return usageRow(1, int64(i%devices), base+int64(i)*clock.Second, float64(g), int64(g))
	}
	gen := func(g int) []schema.Row {
		var rows []schema.Row
		for i := 0; i < n; i++ {
			if has(i, g) {
				rows = append(rows, row(i, g))
			}
		}
		return rows
	}
	var want []schema.Row
	for i := 0; i < n; i++ {
		for g := gens - 1; g >= 0; g-- {
			if has(i, g) {
				want = append(want, row(i, g))
				break
			}
		}
	}
	sort.Slice(want, func(a, b int) bool { return sc.CompareKeys(want[a], want[b]) < 0 })

	inject := func(g int) {
		t.Helper()
		rows := gen(g)
		if applied, err := tt.applyChunk(sc, rows, now); err != nil || applied != len(rows) {
			t.Fatalf("generation %d: applied %d of %d rows: %v", g, applied, len(rows), err)
		}
	}
	mustInsert(t, tt.Table, gen(0)...)
	if err := tt.FlushAll(); err != nil {
		t.Fatal(err)
	}
	inject(1)
	if err := tt.FlushAll(); err != nil {
		t.Fatal(err)
	}
	inject(2)
	tt.mu.Lock()
	for _, f := range tt.filling {
		tt.sealLocked(f)
	}
	sealed := len(tt.pending)
	tt.mu.Unlock()
	if sealed != 1 {
		t.Fatalf("%d flush groups pending, want 1", sealed)
	}
	inject(3)
	if got := tt.MemTabletCount(); got != 2 {
		t.Fatalf("%d memtables, want a sealed and a filling one", got)
	}

	check := func(what string, got, want []schema.Row) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
		}
		for i := range want {
			if !rowsEqual(got[i], want[i]) {
				t.Fatalf("%s: row %d = %v, want %v", what, i, got[i], want[i])
			}
		}
	}
	// Boxes that cut through every source, the memtables included: a time
	// window and a TTL whose edges are rows' timestamps, exclusive key
	// bounds, and limits below the filling memtable's rows in the box.
	window := NewQuery()
	window.MinTs, window.MaxTs = base+13*clock.Second, base+41*clock.Second
	exclusive := NewQuery()
	exclusive.Lower, exclusive.LowerInc = key(1, 1), false
	exclusive.Upper, exclusive.UpperInc = key(1, 3, base+39*clock.Second), false
	windowDesc := window
	windowDesc.Descending, windowDesc.Limit = true, 3
	exclusiveLimit := exclusive
	exclusiveLimit.Limit = 5
	// The five last keys are all in the filling memtable.
	last5 := NewQuery()
	last5.Descending, last5.Limit = true, 5
	boxes := []struct {
		name string
		q    Query
	}{
		{"window", window}, {"exclusive bounds", exclusive}, {"descending, limit 5", last5},
		{"window, descending, limit 3", windowDesc}, {"exclusive bounds, limit 5", exclusiveLimit},
	}
	// reads checks every read against want, less the rows expired before
	// expireLT.
	reads := func(stage string, expireLT int64) {
		t.Helper()
		live := want[:0:0]
		for _, r := range want {
			if sc.Ts(r) >= expireLT {
				live = append(live, r)
			}
		}
		reversed := make([]schema.Row, len(live))
		for i, r := range live {
			reversed[len(live)-1-i] = r
		}
		check(stage+": ascending", queryBox(t, tt.Table, NewQuery()), live)
		q := NewQuery()
		q.Descending = true
		check(stage+": descending", queryBox(t, tt.Table, q), reversed)
		q.Limit = 7
		check(stage+": descending, limit 7", queryBox(t, tt.Table, q), reversed[:7])
		for _, b := range boxes {
			exp := referenceFilter(sc, live, b.q)
			if b.q.Limit > 0 && len(exp) > b.q.Limit {
				exp = exp[:b.q.Limit]
			}
			if len(exp) == 0 {
				t.Fatalf("%s: %s: the box holds no rows", stage, b.name)
			}
			check(stage+": "+b.name, queryBox(t, tt.Table, b.q), exp)
		}
		for d := int64(0); d < devices; d++ {
			got, ok, err := tt.LatestRow(key(1, d))
			if err != nil || !ok {
				t.Fatalf("%s: LatestRow(1, %d) = %v, %v", stage, d, ok, err)
			}
			var latest schema.Row
			for _, r := range live {
				if r[1].Int == d {
					latest = r
				}
			}
			check(fmt.Sprintf("%s: LatestRow(1, %d)", stage, d), []schema.Row{got}, []schema.Row{latest})
		}
	}
	reads("four sources", minInt64)
	// A TTL that expires the first 20 keys, read before anything reclaims
	// them, then lifted again.
	if err := tt.AlterTTL(now - (base + 20*clock.Second)); err != nil {
		t.Fatal(err)
	}
	reads("four sources, TTL", base+20*clock.Second)
	if err := tt.AlterTTL(0); err != nil {
		t.Fatal(err)
	}

	if err := tt.FlushAll(); err != nil {
		t.Fatal(err)
	}
	tt.clk.Advance(2 * clock.Second)
	if _, err := tt.MergeUntilStable(); err != nil {
		t.Fatal(err)
	}
	tt.mu.Lock()
	var counts []int64
	for _, dt := range tt.set.live {
		counts = append(counts, dt.rec.RowCount)
	}
	tt.mu.Unlock()
	if len(counts) != 1 || counts[0] != int64(len(want)) {
		t.Fatalf("after MergeUntilStable: tablet row counts %v, want one tablet of %d", counts, len(want))
	}
	reads("merged", minInt64)
}

func rowsEqual(a, b schema.Row) bool {
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

// mergerSources deals total rows in key order to k memSources in runs of
// run rows: rows [0, run) go to source 0, [run, 2run) to source 1, and so
// on round the sources, so the merge's top source changes once per run.
func mergerSources(k, run, total int) []*memSource {
	srcs := make([]*memSource, k)
	for i := range srcs {
		srcs[i] = &memSource{}
	}
	for j := 0; j < total; j++ {
		s := srcs[(j/run)%k]
		s.rows = append(s.rows, schema.Row{
			ltval.NewInt64(1), ltval.NewInt64(int64(j / 64)), ltval.NewTimestamp(testStart + int64(j%64)*clock.Second),
			ltval.NewDouble(float64(j)), ltval.NewInt64(int64(j)),
		})
	}
	return srcs
}

func primeMerger(sc *schema.Schema, srcs []*memSource) *merger {
	m := &merger{sc: sc, asc: true}
	for ord, s := range srcs {
		s.i = 0
		if err := m.add(s, ord); err != nil {
			panic(err)
		}
	}
	return m
}

// TestMergerNextDoesNotAllocate pins the merger's per-row cost at zero
// allocations once its sources are added, over both long runs from one
// source and a top source that changes every row.
func TestMergerNextDoesNotAllocate(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	sc := usageSchema()
	for _, run := range []int{1, 9, 40} {
		srcs := mergerSources(8, run, 20000)
		m := primeMerger(sc, srcs)
		m.next()
		avg := testing.AllocsPerRun(10, func() {
			for i := 0; i < 1000; i++ {
				if _, ok := m.next(); !ok {
					t.Fatal("merger ran dry")
				}
			}
		})
		if avg != 0 {
			t.Errorf("run %d: %.1f allocations per 1,000 merger.next calls, want 0", run, avg)
		}
	}
}

// BenchmarkMerger drains k in-memory sources through one merger, the top
// source changing once per run rows: run 40 is the ingest merge and
// scan_cold shape, run 9 agg_fanout's, run 1 the worst case. ns/row is
// the merger's cost per yielded row, source stepping included.
func BenchmarkMerger(b *testing.B) {
	sc := usageSchema()
	const total = 1 << 15
	for _, k := range []int{2, 8, 16} {
		for _, run := range []int{1, 9, 40} {
			b.Run(fmt.Sprintf("k=%d/run=%d", k, run), func(b *testing.B) {
				srcs := mergerSources(k, run, total)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m := primeMerger(sc, srcs)
					rows := 0
					for _, ok := m.next(); ok; _, ok = m.next() {
						rows++
					}
					if rows != total {
						b.Fatalf("merged %d rows, want %d", rows, total)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*total), "ns/row")
			})
		}
	}
}
