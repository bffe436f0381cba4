package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"littletable/internal/clock"
	"littletable/internal/ltval"
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
	runQueryDifferential(t, usageHistory)
}

// TestQueryDifferentialDoubleKeys runs the same proof over a table keyed
// by a double drawn from NaN payloads of both signs, ±0, ±Inf, a
// subnormal and 1.5. Keys collide often, and its model calls an insert
// unique exactly when the key's encoded bits are new, so Insert's
// uniqueness check, the merger's duplicate suppression and the query
// bounds must all use the order in which equal means the same bits.
func TestQueryDifferentialDoubleKeys(t *testing.T) {
	runQueryDifferential(t, doubleHistory)
}

// history draws one random history's table, rows and boxes. insert tries
// n one-row inserts into tt, whose model holds rows and whose TTL is
// ttl, and returns those that went in: a random key may collide.
type history struct {
	newTable func(t *testing.T, opts Options) *testTable
	insert   func(t *testing.T, rng *rand.Rand, tt *testTable, model []schema.Row, ttl int64, n int) []schema.Row
	box      func(rng *rand.Rand, now int64) Query
}

var usageHistory = history{
	newTable: func(t *testing.T, opts Options) *testTable { return newTestTable(t, opts) },
	insert: func(t *testing.T, rng *rand.Rand, tt *testTable, _ []schema.Row, _ int64, n int) []schema.Row {
		return insertRandomRows(t, rng, tt, n)
	},
	box: randomBox,
}

func runQueryDifferential(t *testing.T, h history) {
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
				tt := h.newTable(t, Options{
					FlushSize:       2048,
					MergeDelay:      1,
					BlockCacheBytes: cfg.cache,
				})
				sc := tt.Schema()
				model, ttl := buildRandomHistory(t, rng, tt, h)
				// End with rows in both kinds of memtable: a sealed one
				// awaiting its flush and a filling one.
				model = append(model, h.insert(t, rng, tt, model, ttl, 30)...)
				tt.mu.Lock()
				for _, f := range tt.filling {
					tt.sealLocked(f)
				}
				tt.mu.Unlock()
				model = append(model, h.insert(t, rng, tt, model, ttl, 30)...)
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
					boxes[trial] = h.box(rng, testStart)
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
// flushes, merges, deletes, and TTL changes, with rows and delete boxes
// drawn by h, and returns the surviving model rows plus the final TTL.
// Deleted rows leave the model; expired rows stay (physical reclamation
// may lag), so callers filter by TTL.
func buildRandomHistory(t *testing.T, rng *rand.Rand, tt *testTable, h history) (model []schema.Row, ttl int64) {
	t.Helper()
	sc := tt.Schema()
	steps := 250 + rng.Intn(150)
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(100); {
		case op < 60: // insert a small batch of rows
			model = append(model, h.insert(t, rng, tt, model, ttl, 1+rng.Intn(4))...)
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
			q := h.box(rng, tt.clk.Now())
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

// doubleKeys are the x values doubleHistory draws: NaN payloads of both
// signs, ±0, ±Inf, a subnormal and 1.5.
var doubleKeys = []float64{
	math.NaN(), math.Float64frombits(0x7ff8000000000002), math.Float64frombits(0xfff8000000000001),
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, 1.5,
}

var doubleHistory = history{
	newTable: func(t *testing.T, opts Options) *testTable { return newDoubleTable(t, opts) },
	insert:   insertDoubleRows,
	box: func(rng *rand.Rand, now int64) Query {
		return randomBoxOf(rng, now, func(rng *rand.Rand) []ltval.Value {
			pfx := []ltval.Value{ltval.NewDouble(doubleKeys[rng.Intn(len(doubleKeys))])}
			if rng.Intn(2) == 0 {
				pfx = append(pfx, ltval.NewTimestamp(gridTs(rng, now, 40*clock.Day)))
			}
			return pfx
		})
	},
}

// gridTs draws a timestamp on a 12-hour grid from the span before now, so
// that keys repeat.
func gridTs(rng *rand.Rand, now, span int64) int64 {
	const g = 12 * clock.Hour
	first, last := (now-span+g-1)/g, now/g
	return g * (first + rng.Int63n(last-first+1))
}

// insertDoubleRows inserts n rows of doubleSchema one at a time and checks
// each Insert against the model: a row is unique exactly when no model row
// has its key's encoded bits. Under a TTL it draws timestamps an hour
// inside it, so no key it draws can match an expired row, which the table
// may or may not have reclaimed yet.
func insertDoubleRows(t *testing.T, rng *rand.Rand, tt *testTable, model []schema.Row, ttl int64, n int) []schema.Row {
	t.Helper()
	sc := tt.Schema()
	held := make(map[string]bool, len(model)+n)
	for _, row := range model {
		held[string(sc.AppendKey(nil, row))] = true
	}
	span := int64(40 * clock.Day)
	if ttl > 0 {
		span = ttl - clock.Hour
	}
	var rows []schema.Row
	for i := 0; i < n; i++ {
		x := doubleKeys[rng.Intn(len(doubleKeys))]
		row := doubleRow(x, gridTs(rng, tt.clk.Now(), span), rng.Int63())
		k := string(sc.AppendKey(nil, row))
		err := tt.Insert([]schema.Row{row})
		switch {
		case held[k] && !errors.Is(err, ErrDuplicateKey):
			t.Fatalf("insert %v (x %#x) over a held key: %v, want ErrDuplicateKey", row, math.Float64bits(x), err)
		case !held[k] && err != nil:
			t.Fatalf("insert %v (x %#x), a new key: %v", row, math.Float64bits(x), err)
		case err == nil:
			held[k] = true
			rows = append(rows, row)
		}
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
