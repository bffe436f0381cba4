package core

import (
	"math/rand"
	"sort"
	"testing"

	"littletable/internal/clock"
	"littletable/internal/schema"
)

// TestEngineStateMachine is a model-based test over the engine's full
// operation surface: random interleavings of inserts, flushes, merges,
// TTL expiry, bulk deletes, clock advances, and crash/reopens, checked
// after every step against an in-memory reference model. The model tracks
// durability explicitly: rows are "volatile" until the flush that covers
// them completes, and a crash must retain exactly a prefix of insertion
// order.
func TestEngineStateMachine(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		t.Run("", func(t *testing.T) {
			runStateMachine(t, seed, 400, Options{FlushSize: 4 << 10, MergeDelay: clock.Second})
		})
	}
}

// TestEngineStateMachineParallel re-runs the state machine with the
// block cache on alongside the read path's worker-pool opens and prefetch
// pipelines, so every model verification
// also checks that parallel queries agree with the reference through
// crashes, merges, deletes, and TTL changes.
func TestEngineStateMachineParallel(t *testing.T) {
	for seed := int64(20); seed < 24; seed++ {
		t.Run("", func(t *testing.T) {
			runStateMachine(t, seed, 400, Options{
				FlushSize:       4 << 10,
				MergeDelay:      clock.Second,
				BlockCacheBytes: 4 << 20,
			})
		})
	}
}

type modelRow struct {
	row     schema.Row
	seq     int64
	durable bool
}

func runStateMachine(t *testing.T, seed int64, steps int, opts Options) {
	rng := rand.New(rand.NewSource(seed))
	tt := newTestTable(t, opts)
	sc := tt.Schema()
	ttl := int64(0)

	var model []modelRow
	var seq int64

	exists := func(row schema.Row) bool {
		for _, m := range model {
			if sc.CompareKeys(m.row, row) == 0 {
				return true
			}
		}
		return false
	}
	liveRows := func(now int64) []schema.Row {
		var out []schema.Row
		for _, m := range model {
			if ttl > 0 && sc.Ts(m.row) < now-ttl {
				continue
			}
			out = append(out, m.row)
		}
		sort.Slice(out, func(i, j int) bool { return sc.CompareKeys(out[i], out[j]) < 0 })
		return out
	}

	verify := func(step int) {
		got := queryBox(t, tt.Table, NewQuery())
		want := liveRows(tt.clk.Now())
		if len(got) != len(want) {
			t.Fatalf("seed %d step %d: engine has %d rows, model %d", seed, step, len(got), len(want))
		}
		for i := range want {
			if sc.CompareKeys(got[i], want[i]) != 0 {
				t.Fatalf("seed %d step %d: row %d differs", seed, step, i)
			}
		}
	}

	for step := 0; step < steps; step++ {
		switch op := rng.Intn(100); {
		case op < 55: // insert a small batch
			n := 1 + rng.Intn(5)
			for i := 0; i < n; i++ {
				ts := tt.clk.Now() - rng.Int63n(20*clock.Day)
				row := usageRow(rng.Int63n(3), rng.Int63n(4), ts, float64(step), seq)
				if exists(row) {
					if err := tt.Insert([]schema.Row{row}); err == nil {
						t.Fatalf("seed %d step %d: duplicate accepted", seed, step)
					}
					continue
				}
				if err := tt.Insert([]schema.Row{row}); err != nil {
					t.Fatalf("seed %d step %d: insert: %v", seed, step, err)
				}
				model = append(model, modelRow{row: row, seq: seq})
				seq++
			}
		case op < 65: // flush everything
			if err := tt.FlushAll(); err != nil {
				t.Fatal(err)
			}
			for i := range model {
				model[i].durable = true
			}
		case op < 72: // one merge round
			tt.clk.Advance(2 * clock.Second)
			if _, err := tt.MergeStep(); err != nil {
				t.Fatal(err)
			}
		case op < 78: // advance time substantially
			tt.clk.Advance(time64(rng))
		case op < 84: // alter TTL (only ever tightening) and expire
			// Loosening a TTL would resurface rows the engine still holds
			// physically but the model dropped at a crash (the crash
			// rebuild reads through the TTL filter); production TTL changes
			// for privacy compliance only tighten, so the model does too.
			var candidates []int64
			for _, c := range []int64{5 * clock.Day, 15 * clock.Day} {
				if ttl == 0 || c <= ttl {
					candidates = append(candidates, c)
				}
			}
			ttl = candidates[rng.Intn(len(candidates))]
			if err := tt.AlterTTL(ttl); err != nil {
				t.Fatal(err)
			}
			if err := tt.ExpireNow(); err != nil {
				t.Fatal(err)
			}
			// Expired rows may be physically reclaimed; the model keeps
			// them but liveRows filters, matching query semantics.
		case op < 92: // bulk delete a random box
			q := randomBox(rng, tt.clk.Now())
			q.Descending = false
			if _, err := tt.DeleteWhere(q, nil); err != nil {
				t.Fatal(err)
			}
			var kept []modelRow
			for _, m := range model {
				row := m.row
				doomed := true
				if q.Lower != nil {
					c := sc.CompareRowToKey(row, q.Lower)
					if c < 0 || (c == 0 && !q.LowerInc) {
						doomed = false
					}
				}
				if q.Upper != nil {
					c := sc.CompareRowToKey(row, q.Upper)
					if c > 0 || (c == 0 && !q.UpperInc) {
						doomed = false
					}
				}
				if ts := sc.Ts(row); ts < q.MinTs || ts > q.MaxTs {
					doomed = false
				}
				if !doomed {
					kept = append(kept, m)
				}
			}
			model = kept
			// DeleteWhere flushes as a side effect.
			for i := range model {
				model[i].durable = true
			}
		default: // crash + reopen
			tt2 := reopen(t, tt)
			tt.Table = tt2.Table
			// The crash drops volatile rows — which must form a suffix of
			// insertion order among surviving rows.
			var kept []modelRow
			for _, m := range model {
				if m.durable {
					kept = append(kept, m)
				}
			}
			// Engine may have flushed more than the model knows (size
			// triggers); reconcile: whatever the engine retained must be a
			// superset of the durable model rows and a prefix by seq.
			got := queryBox(t, tt.Table, NewQuery())
			gotKeys := map[string]bool{}
			for _, r := range got {
				gotKeys[string(sc.AppendKey(nil, r))] = true
			}
			for _, m := range kept {
				if ttl > 0 && sc.Ts(m.row) < tt.clk.Now()-ttl {
					continue
				}
				if !gotKeys[string(sc.AppendKey(nil, m.row))] {
					t.Fatalf("seed %d step %d: durable row lost in crash", seed, step)
				}
			}
			// Rebuild the model from engine truth (all now durable),
			// preserving seq order for the prefix check.
			surviving := map[string]bool{}
			for _, r := range got {
				surviving[string(sc.AppendKey(nil, r))] = true
			}
			var next []modelRow
			maxSeq, minMissing := int64(-1), int64(1<<62)
			for _, m := range model {
				if surviving[string(sc.AppendKey(nil, m.row))] {
					m.durable = true
					next = append(next, m)
					if m.seq > maxSeq {
						maxSeq = m.seq
					}
				} else if ttl == 0 || sc.Ts(m.row) >= tt.clk.Now()-ttl {
					if m.seq < minMissing {
						minMissing = m.seq
					}
				}
			}
			// Prefix-of-insertion-order: no retained row may have a larger
			// seq than a lost one... unless the lost one was removed by a
			// delete (model already dropped those) or TTL (filtered above).
			if minMissing < maxSeq {
				t.Fatalf("seed %d step %d: crash kept seq %d but lost seq %d", seed, step, maxSeq, minMissing)
			}
			model = next
		}
		if step%20 == 19 {
			verify(step)
		}
	}
	verify(steps)
}

func time64(rng *rand.Rand) int64 {
	return []int64{clock.Minute, clock.Hour, clock.Day}[rng.Intn(3)]
}
