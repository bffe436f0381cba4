package core

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"littletable/internal/clock"
	"littletable/internal/schema"
)

// TestQueryDifferentialParallel is the parallel read path's correctness
// proof: for each number of concurrent queriers (1, 2, 8), build tables
// through a random schedule of inserts, flushes, merges, bulk deletes,
// and TTL expirations, then check over a thousand randomized
// bounding-box queries bit-for-bit against a naive sorted-slice model.
// Queries over one tablet open it inline and wider ones through the
// worker pool, so any divergence between the serial and parallel open
// paths — ordering, duplicate suppression, TTL filtering, bound handling
// — fails here. The eight-querier run shares a block cache. Run under
// -race this also exercises the worker pool, prefetch pipelines, and
// block-cache singleflight for data races.
func TestQueryDifferentialParallel(t *testing.T) {
	configs := []struct {
		par   int // goroutines querying the table at once
		cache int64
	}{
		{par: 1, cache: 0},       // one querier, no cache
		{par: 2, cache: 0},       // concurrent queriers, no cache
		{par: 8, cache: 4 << 20}, // contended singleflight cache
	}
	const seeds = 7
	const trials = 50 // 3 configs x 7 seeds x 50 = 1050 queries
	for _, cfg := range configs {
		t.Run(fmt.Sprintf("parallelism=%d", cfg.par), func(t *testing.T) {
			for seed := int64(0); seed < seeds; seed++ {
				rng := rand.New(rand.NewSource(seed*1000 + int64(cfg.par)))
				tt := newTestTable(t, Options{
					FlushSize:       2048,
					MergeDelay:      1,
					BlockCacheBytes: cfg.cache,
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
				// Draw every box from rng first, so the queries do not
				// depend on how the queriers interleave.
				boxes := make([]Query, trials)
				for trial := range boxes {
					boxes[trial] = randomBox(rng, testStart)
					if rng.Intn(3) == 0 {
						boxes[trial].Limit = 1 + rng.Intn(8)
					}
				}
				var wg sync.WaitGroup
				for w := 0; w < cfg.par; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for trial := w; trial < trials; trial += cfg.par {
							q := boxes[trial]
							got, err := tt.QueryAll(q)
							if err != nil {
								t.Error(err)
								return
							}
							want := referenceFilter(sc, live, q)
							if q.Limit > 0 && len(want) > q.Limit {
								want = want[:q.Limit]
							}
							if len(got) != len(want) {
								t.Errorf("par %d seed %d trial %d: got %d rows, want %d (box %+v)",
									cfg.par, seed, trial, len(got), len(want), q)
								return
							}
							for i := range want {
								if sc.CompareKeys(got[i], want[i]) != 0 {
									t.Errorf("par %d seed %d trial %d: row %d differs",
										cfg.par, seed, trial, i)
									return
								}
							}
						}
					}()
				}
				wg.Wait()
				if t.Failed() {
					return
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
