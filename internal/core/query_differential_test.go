package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"littletable/internal/clock"
	"littletable/internal/schema"
)

// TestQueryDifferentialParallel is the parallel read path's correctness
// proof: for each query parallelism (1, 2, 8 — serial, contended pool,
// wider-than-source pool), build tables through a random schedule of
// inserts, flushes, merges, bulk deletes, and TTL expirations, then check
// over a thousand randomized bounding-box queries bit-for-bit against a
// naive sorted-slice model. Any divergence between the serial and parallel
// merge paths — ordering, duplicate suppression, TTL filtering, bound
// handling — fails here. Run under -race this also exercises the worker
// pool, prefetch pipelines, and block-cache singleflight for data races.
func TestQueryDifferentialParallel(t *testing.T) {
	configs := []struct {
		par      int
		prefetch int
		cache    int64
	}{
		{par: 1, prefetch: -1, cache: 0},      // the pre-parallel engine
		{par: 2, prefetch: 2, cache: 0},       // contended pool, no cache
		{par: 8, prefetch: 3, cache: 4 << 20}, // wide pool + singleflight cache
	}
	const seeds = 7
	const trials = 50 // 3 configs x 7 seeds x 50 = 1050 queries
	for _, cfg := range configs {
		t.Run(fmt.Sprintf("parallelism=%d", cfg.par), func(t *testing.T) {
			for seed := int64(0); seed < seeds; seed++ {
				rng := rand.New(rand.NewSource(seed*1000 + int64(cfg.par)))
				tt := newTestTable(t, Options{
					FlushSize:        2048,
					MergeDelay:       1,
					QueryParallelism: cfg.par,
					PrefetchDepth:    cfg.prefetch,
					BlockCacheBytes:  cfg.cache,
				})
				sc := tt.Schema()
				model, ttl := buildRandomHistory(t, rng, tt)
				// End with rows in both kinds of memtable: a sealed one
				// awaiting its flush and a filling one.
				model = append(model, insertRandomRows(t, rng, tt, 30)...)
				tt.mu.Lock()
				for _, f := range tt.filling {
					tt.sealLocked(f)
				}
				tt.mu.Unlock()
				model = append(model, insertRandomRows(t, rng, tt, 30)...)
				now := tt.clk.Now()
				live := model[:0:0]
				for _, row := range model {
					if ttl > 0 && sc.Ts(row) < now-ttl {
						continue
					}
					live = append(live, row)
				}
				sort.Slice(live, func(i, j int) bool {
					return sc.CompareKeys(live[i], live[j]) < 0
				})
				for trial := 0; trial < trials; trial++ {
					q := randomBox(rng, testStart)
					if rng.Intn(3) == 0 {
						q.Limit = 1 + rng.Intn(8)
					}
					got, err := tt.QueryAll(q)
					if err != nil {
						t.Fatal(err)
					}
					want := referenceFilter(sc, live, q)
					if q.Limit > 0 && len(want) > q.Limit {
						want = want[:q.Limit]
					}
					if len(got) != len(want) {
						t.Fatalf("par %d seed %d trial %d: got %d rows, want %d (box %+v)",
							cfg.par, seed, trial, len(got), len(want), q)
					}
					for i := range want {
						if sc.CompareKeys(got[i], want[i]) != 0 {
							t.Fatalf("par %d seed %d trial %d: row %d differs",
								cfg.par, seed, trial, i)
						}
					}
				}
			}
		})
	}
}

// buildRandomHistory drives tt through a random schedule of inserts,
// flushes, merges, deletes, and TTL changes, and returns the surviving
// model rows plus the final TTL. Deleted rows leave the model; expired
// rows stay (physical reclamation may lag), so callers filter by TTL.
func buildRandomHistory(t *testing.T, rng *rand.Rand, tt *testTable) (model []schema.Row, ttl int64) {
	t.Helper()
	sc := tt.Schema()
	steps := 250 + rng.Intn(150)
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(100); {
		case op < 60: // insert a small batch of rows
			model = append(model, insertRandomRows(t, rng, tt, 1+rng.Intn(4))...)
		case op < 72: // flush, spreading rows into on-disk tablets
			if err := tt.FlushAll(); err != nil {
				t.Fatal(err)
			}
		case op < 80: // merge round
			tt.clk.Advance(2 * clock.Second)
			if _, err := tt.MergeStep(); err != nil {
				t.Fatal(err)
			}
		case op < 88: // bulk delete a random box
			q := randomBox(rng, tt.clk.Now())
			q.Descending = false
			if _, err := tt.DeleteWhere(q, nil); err != nil {
				t.Fatal(err)
			}
			kept := model[:0]
			for _, row := range model {
				if !referenceInBox(sc, row, q) {
					kept = append(kept, row)
				}
			}
			model = kept
		case op < 94: // tighten TTL and expire
			next := []int64{15 * clock.Day, 25 * clock.Day}[rng.Intn(2)]
			if ttl == 0 || next < ttl {
				ttl = next
			}
			if err := tt.AlterTTL(ttl); err != nil {
				t.Fatal(err)
			}
			if err := tt.ExpireNow(); err != nil {
				t.Fatal(err)
			}
		default: // let time pass a little
			tt.clk.Advance(clock.Minute)
		}
	}
	return model, ttl
}

// insertRandomRows inserts up to n rows spread over the last 40 days, one
// at a time, and returns those that went in: a random key may collide.
func insertRandomRows(t *testing.T, rng *rand.Rand, tt *testTable, n int) []schema.Row {
	t.Helper()
	var rows []schema.Row
	for i := 0; i < n; i++ {
		row := usageRow(
			rng.Int63n(4), rng.Int63n(6),
			tt.clk.Now()-rng.Int63n(40*clock.Day),
			rng.Float64(), rng.Int63(),
		)
		if err := tt.Insert([]schema.Row{row}); err != nil {
			continue
		}
		rows = append(rows, row)
	}
	return rows
}

// referenceInBox reports whether row falls inside q's two-dimensional box.
func referenceInBox(sc *schema.Schema, row schema.Row, q Query) bool {
	if q.Lower != nil {
		c := sc.CompareRowToKey(row, q.Lower)
		if c < 0 || (c == 0 && !q.LowerInc) {
			return false
		}
	}
	if q.Upper != nil {
		c := sc.CompareRowToKey(row, q.Upper)
		if c > 0 || (c == 0 && !q.UpperInc) {
			return false
		}
	}
	ts := sc.Ts(row)
	return ts >= q.MinTs && ts <= q.MaxTs
}
