package core

import (
	"math/rand"
	"sort"
	"testing"

	"littletable/internal/clock"
	"littletable/internal/ltval"
	"littletable/internal/schema"
)

// TestQueryBoxMatchesReferenceModel is the bounding-box exactness property
// (DESIGN.md invariant 2): against a table whose rows are split across
// memtables, flushed tablets, and merged tablets, every randomly drawn
// two-dimensional box must return exactly the rows a naive in-memory
// reference filter selects, in exactly key order.
func TestQueryBoxMatchesReferenceModel(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		t.Run("", func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			tt := newTestTable(t, Options{FlushSize: 2048, MergeDelay: 1})
			now := tt.clk.Now()
			sc := tt.Schema()

			// Reference model: all inserted rows.
			var model []schema.Row
			n := 200 + rng.Intn(400)
			for i := 0; i < n; i++ {
				row := usageRow(
					rng.Int63n(4),
					rng.Int63n(6),
					now-rng.Int63n(10*clock.Day),
					rng.Float64(),
					int64(i),
				)
				err := tt.Insert([]schema.Row{row})
				if err != nil {
					// Random key collision: skip, like an application would.
					continue
				}
				model = append(model, row)
				// Occasionally flush and merge to spread rows across
				// storage layers.
				if rng.Intn(50) == 0 {
					if err := tt.FlushAll(); err != nil {
						t.Fatal(err)
					}
				}
				if rng.Intn(120) == 0 {
					tt.clk.Advance(2 * clock.Second)
					if _, err := tt.MergeUntilStable(); err != nil {
						t.Fatal(err)
					}
				}
			}
			sort.Slice(model, func(i, j int) bool {
				return sc.CompareKeys(model[i], model[j]) < 0
			})

			for trial := 0; trial < 40; trial++ {
				q := randomBox(rng, now)
				got, err := tt.QueryAll(q)
				if err != nil {
					t.Fatal(err)
				}
				want := referenceFilter(sc, model, q)
				if len(got) != len(want) {
					t.Fatalf("seed %d trial %d: got %d rows, want %d (box %+v)",
						seed, trial, len(got), len(want), q)
				}
				for i := range want {
					if sc.CompareKeys(got[i], want[i]) != 0 {
						t.Fatalf("seed %d trial %d: row %d differs", seed, trial, i)
					}
				}
			}
		})
	}
}

// randomBox draws a random 2-D query box, sometimes unbounded on each side.
func randomBox(rng *rand.Rand, now int64) Query {
	return randomBoxOf(rng, now, func(rng *rand.Rand) []ltval.Value {
		pfx := []ltval.Value{ltval.NewInt64(rng.Int63n(5))}
		if rng.Intn(2) == 0 {
			pfx = append(pfx, ltval.NewInt64(rng.Int63n(7)))
		}
		return pfx
	})
}

// randomBoxOf draws a random 2-D query box whose key bounds, when set,
// are drawn by prefix.
func randomBoxOf(rng *rand.Rand, now int64, prefix func(*rand.Rand) []ltval.Value) Query {
	q := NewQuery()
	if rng.Intn(3) > 0 {
		q.Lower = prefix(rng)
		q.LowerInc = rng.Intn(4) > 0
	}
	if rng.Intn(3) > 0 {
		pfx := prefix(rng)
		if q.Lower != nil && schema.CompareKeySlices(pfx, q.Lower) < 0 {
			q.Lower, q.Upper = pfx, q.Lower
			q.LowerInc = true
		} else {
			q.Upper = pfx
		}
		q.UpperInc = rng.Intn(4) > 0
	}
	if rng.Intn(2) == 0 {
		lo := now - rng.Int63n(12*clock.Day)
		hi := lo + rng.Int63n(6*clock.Day)
		q.MinTs, q.MaxTs = lo, hi
	}
	q.Descending = rng.Intn(3) == 0
	return q
}

// referenceFilter applies the box semantics naively to the sorted model.
func referenceFilter(sc *schema.Schema, model []schema.Row, q Query) []schema.Row {
	var out []schema.Row
	for _, row := range model {
		if q.Lower != nil {
			c := sc.CompareRowToKey(row, q.Lower)
			if c < 0 || (c == 0 && !q.LowerInc) {
				continue
			}
		}
		if q.Upper != nil {
			c := sc.CompareRowToKey(row, q.Upper)
			if c > 0 || (c == 0 && !q.UpperInc) {
				continue
			}
		}
		ts := sc.Ts(row)
		if ts < q.MinTs || ts > q.MaxTs {
			continue
		}
		out = append(out, row)
	}
	if q.Descending {
		for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
			out[i], out[j] = out[j], out[i]
		}
	}
	return out
}

// TestLatestRowMatchesReferenceModel cross-checks LatestRow against the
// naive maximum over the model for random prefixes.
func TestLatestRowMatchesReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tt := newTestTable(t, Options{FlushSize: 4096})
	now := tt.clk.Now()
	sc := tt.Schema()
	var model []schema.Row
	for i := 0; i < 500; i++ {
		row := usageRow(rng.Int63n(3), rng.Int63n(5), now-rng.Int63n(40*clock.Day), 0, int64(i))
		if err := tt.Insert([]schema.Row{row}); err != nil {
			continue
		}
		model = append(model, row)
		if i%97 == 0 {
			if err := tt.FlushAll(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for trial := 0; trial < 60; trial++ {
		prefix := []ltval.Value{ltval.NewInt64(rng.Int63n(4))}
		if rng.Intn(2) == 0 {
			prefix = append(prefix, ltval.NewInt64(rng.Int63n(6)))
		}
		got, found, err := tt.LatestRow(prefix)
		if err != nil {
			t.Fatal(err)
		}
		var want schema.Row
		for _, row := range model {
			if sc.CompareRowToKey(row, prefix) != 0 {
				continue
			}
			if want == nil || sc.Ts(row) > sc.Ts(want) {
				want = row
			}
		}
		if (want != nil) != found {
			t.Fatalf("trial %d: found=%v, model says %v", trial, found, want != nil)
		}
		if found && sc.CompareKeys(got, want) != 0 {
			t.Fatalf("trial %d: latest row mismatch: got ts %d, want ts %d",
				trial, sc.Ts(got), sc.Ts(want))
		}
	}
}
