package client

import (
	"context"
	"fmt"
	"math"
	"testing"

	"littletable/internal/agg"
	"littletable/internal/clock"
	"littletable/internal/core"
	"littletable/internal/ltval"
	"littletable/internal/schema"
	"littletable/internal/server"
	"littletable/internal/wire"
)

func usageAggSchema() *schema.Schema {
	return schema.MustNew([]schema.Column{
		{Name: "network", Type: ltval.Int64},
		{Name: "device", Type: ltval.Int64},
		{Name: "ts", Type: ltval.Timestamp},
		{Name: "rate", Type: ltval.Double},
		{Name: "bytes", Type: ltval.Int64},
	}, []string{"network", "device", "ts"})
}

func usageAggRow(n, d, ts int64, rate float64, bytes int64) schema.Row {
	return schema.Row{
		ltval.NewInt64(n), ltval.NewInt64(d), ltval.NewTimestamp(ts),
		ltval.NewDouble(rate), ltval.NewInt64(bytes),
	}
}

func usageAggSpec() agg.Spec {
	return agg.Spec{
		BucketWidth: clock.Minute,
		GroupCols:   2,
		Aggs: []agg.Agg{
			{Func: agg.Count},
			{Func: agg.Sum, Col: "bytes"},
			{Func: agg.Sum, Col: "rate"},
			{Func: agg.Min, Col: "rate"},
			{Func: agg.Max, Col: "bytes"},
			{Func: agg.Avg, Col: "rate"},
			{Func: agg.Quantile, Col: "rate", Q: 0.9},
		},
	}
}

// aggGroupsExact is the bit-exact comparison the differential test can
// demand: server and client fold the same rows in the same (primary-key)
// order, so even float sums must match to the last bit. Only the bits
// the wire format carries for each function are compared — IsFloat, for
// instance, exists solely to pick the Sum/Avg arithmetic.
func aggGroupsExact(t *testing.T, spec agg.Spec, label string, got, want []agg.Group) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d groups, want %d", label, len(got), len(want))
	}
	for i := range want {
		if agg.CompareGroups(&got[i], &want[i]) != 0 {
			t.Fatalf("%s: group %d key/bucket mismatch: got %+v want %+v", label, i, got[i], want[i])
		}
		for j := range want[i].States {
			sg, sw := got[i].States[j], want[i].States[j]
			if sg.N != sw.N || sg.HasMM != sw.HasMM {
				t.Fatalf("%s: group %d state %d: got %+v want %+v", label, i, j, sg, sw)
			}
			if f := spec.Aggs[j].Func; f == agg.Sum || f == agg.Avg {
				if sg.IntSum != sw.IntSum || sg.Saturated != sw.Saturated || sg.IsFloat != sw.IsFloat {
					t.Fatalf("%s: group %d state %d: got %+v want %+v", label, i, j, sg, sw)
				}
				if sg.FloatSum != sw.FloatSum && !(math.IsNaN(sg.FloatSum) && math.IsNaN(sw.FloatSum)) {
					t.Fatalf("%s: group %d state %d float sum: got %v want %v", label, i, j, sg.FloatSum, sw.FloatSum)
				}
			}
			if sg.HasMM && sg.MM.Compare(sw.MM) != 0 {
				t.Fatalf("%s: group %d state %d min/max: got %+v want %+v", label, i, j, sg.MM, sw.MM)
			}
			if (sg.Sketch == nil) != (sw.Sketch == nil) {
				t.Fatalf("%s: group %d state %d sketch presence differs", label, i, j)
			}
			if sg.Sketch != nil &&
				string(sg.Sketch.AppendBinary(nil)) != string(sw.Sketch.AppendBinary(nil)) {
				t.Fatalf("%s: group %d state %d sketch bytes differ", label, i, j)
			}
		}
	}
}

// TestAggQueryDifferential is the end-to-end correctness gate for the
// server-side aggregation path: the same rows aggregated two ways — by
// the server over MsgAggQuery, and by the client folding raw Query rows
// through the same accumulator — must agree exactly over a mixed
// memtable + disk-tablet table state. parallelism_N spreads usage_a over
// N disk tablets, so the server opens its sources inline (1), two at once
// (2), and eight through a pool that opens core.DefaultQueryParallelism
// (4) at a time (8).
func TestAggQueryDifferential(t *testing.T) {
	for _, par := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("parallelism_%d", par), func(t *testing.T) {
			srv, addr := startServer(t, server.Options{})
			c := dial(t, addr)
			sc := usageAggSchema()
			for _, name := range []string{"usage_a", "usage_b", "other"} {
				if err := c.CreateTable(name, sc, 0); err != nil {
					t.Fatal(err)
				}
			}
			const base = int64(1_700_000_000) * clock.Second
			insert := func(name string, seed int64, tablets int) {
				tab, err := c.OpenTable(name)
				if err != nil {
					t.Fatal(err)
				}
				var batch []schema.Row
				for n := int64(0); n < 3; n++ {
					for d := int64(0); d < 4; d++ {
						for i := int64(0); i < 12; i++ {
							ts := base + i*17*clock.Second // spans several 1m buckets
							rate := float64((seed+n*7+d*3+i)%11) - 4.5
							if (seed+i)%9 == 0 {
								rate = math.NaN()
							}
							batch = append(batch, usageAggRow(n, d, ts, rate, (seed+1)*1000+n*100+d*10+i))
						}
					}
				}
				for p := 0; p < tablets; p++ {
					if p > 0 {
						if err := srv.FlushAllTables(); err != nil {
							t.Fatal(err)
						}
					}
					if err := tab.InsertNow(batch[p*len(batch)/tablets : (p+1)*len(batch)/tablets]); err != nil {
						t.Fatal(err)
					}
				}
			}
			insert("usage_a", 1, par)
			insert("other", 99, 1) // must not leak into the "usage" prefix
			// Flush now, then add more rows: the aggregation scan must merge
			// disk tablets and memtable alike.
			if err := srv.FlushAllTables(); err != nil {
				t.Fatal(err)
			}
			insert("usage_b", 2, 1)

			spec := usageAggSpec()
			// A window that clips both ends, so the ts filter is observable.
			lo := base + 30*clock.Second
			hi := base + 150*clock.Second

			// Reference: fold each table's raw rows client-side in the order
			// the query returns them (primary-key order — the same order the
			// server folds), then merge across tables.
			var wantMerged []agg.Group
			want := map[string][]agg.Group{}
			var wantRows int64
			for _, name := range []string{"usage_a", "usage_b"} {
				tab, err := c.OpenTable(name)
				if err != nil {
					t.Fatal(err)
				}
				acc, err := agg.NewAccumulator(sc, spec)
				if err != nil {
					t.Fatal(err)
				}
				q := NewQuery()
				q.MinTs, q.MaxTs = lo, hi
				rows := tab.Query(q)
				for rows.Next() {
					acc.Add(rows.Row())
				}
				if err := rows.Err(); err != nil {
					t.Fatal(err)
				}
				rows.Close()
				if acc.Rows() == 0 {
					t.Fatalf("%s: reference query matched no rows; bad window", name)
				}
				wantRows += acc.Rows()
				want[name] = acc.Groups()
				wantMerged = agg.MergeGroups(spec, wantMerged, want[name])
			}

			res, err := c.AggQuery(context.Background(), &wire.AggQuery{
				Prefix: "usage", Spec: spec, MinTs: lo, MaxTs: hi, WantPartials: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Truncated {
				t.Fatal("result truncated without any cap set")
			}
			if res.RowsFolded != wantRows {
				t.Fatalf("RowsFolded = %d, want %d", res.RowsFolded, wantRows)
			}
			if len(res.Tables) != 2 || res.Tables[0].Table != "usage_a" || res.Tables[1].Table != "usage_b" {
				t.Fatalf("partial tables: %+v", res.Tables)
			}
			for _, p := range res.Tables {
				aggGroupsExact(t, spec, p.Table, p.Groups, want[p.Table])
			}
			aggGroupsExact(t, spec, "merged", res.Groups, wantMerged)

			// The dashboard shape: without WantPartials the per-table
			// sections stay home and only the merged groups ship.
			lean, err := c.AggQuery(context.Background(), &wire.AggQuery{
				Prefix: "usage", Spec: spec, MinTs: lo, MaxTs: hi,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(lean.Tables) != 0 {
				t.Fatalf("partials shipped without WantPartials: %d tables", len(lean.Tables))
			}
			aggGroupsExact(t, spec, "lean merged", lean.Groups, wantMerged)

			// Finalized outputs line up one-to-one with the mergeable groups.
			outs := agg.Finalize(spec, res.Groups)
			if len(outs) != len(wantMerged) {
				t.Fatalf("finalize: %d outputs, want %d", len(outs), len(wantMerged))
			}
			for i, o := range outs {
				if o.Bucket != wantMerged[i].Bucket || len(o.Values) != len(spec.Aggs) {
					t.Fatalf("finalize output %d drifted: %+v", i, o)
				}
				if o.Values[0].Int != wantMerged[i].States[0].N {
					t.Fatalf("finalize count %d = %d, want %d", i, o.Values[0].Int, wantMerged[i].States[0].N)
				}
			}
			// Only a table over more than one disk tablet opens through the pool.
			ta, err := srv.Table("usage_a")
			if err != nil {
				t.Fatal(err)
			}
			if opens := ta.Stats().Snapshot().ParallelOpens; (opens > 0) != (par > 1) {
				t.Fatalf("usage_a over %d tablets: %d parallel opens", par, opens)
			}
		})
	}
}

// TestAggQueryCaps drives the two truncation paths over the wire: a
// group cap hit mid-scan and a table cap narrowing coverage must both
// set Truncated rather than fail.
func TestAggQueryCaps(t *testing.T) {
	_, addr := startServer(t, server.Options{})
	c := dial(t, addr)
	sc := usageAggSchema()
	for _, name := range []string{"cap_a", "cap_b"} {
		if err := c.CreateTable(name, sc, 0); err != nil {
			t.Fatal(err)
		}
		tab, err := c.OpenTable(name)
		if err != nil {
			t.Fatal(err)
		}
		var batch []schema.Row
		for d := int64(0); d < 32; d++ {
			batch = append(batch, usageAggRow(1, d, clock.Minute*d, 1.5, d))
		}
		if err := tab.InsertNow(batch); err != nil {
			t.Fatal(err)
		}
	}
	spec := agg.Spec{GroupCols: 2, Aggs: []agg.Agg{{Func: agg.Count}}} // width 0: one bucket, one group per device
	full, err := c.AggQuery(context.Background(), &wire.AggQuery{
		Prefix: "cap", Spec: spec, MinTs: core.TsMin, MaxTs: core.TsMax, WantPartials: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if full.Truncated || len(full.Tables) != 2 {
		t.Fatalf("uncapped query: truncated=%v tables=%d", full.Truncated, len(full.Tables))
	}

	capped, err := c.AggQuery(context.Background(), &wire.AggQuery{
		Prefix: "cap", Spec: spec, MinTs: core.TsMin, MaxTs: core.TsMax, MaxGroups: 8, WantPartials: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !capped.Truncated {
		t.Fatal("MaxGroups cap not reported as truncation")
	}

	oneTable, err := c.AggQuery(context.Background(), &wire.AggQuery{
		Prefix: "cap", Spec: spec, MinTs: core.TsMin, MaxTs: core.TsMax, MaxTables: 1, WantPartials: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !oneTable.Truncated || len(oneTable.Tables) != 1 || oneTable.Tables[0].Table != "cap_a" {
		t.Fatalf("MaxTables cap: truncated=%v tables=%+v", oneTable.Truncated, oneTable.Tables)
	}

	// An unset window (MinTs == MaxTs == 0) means all time — the server
	// must not read the zero values as the literal inclusive window [0,0].
	unset, err := c.AggQuery(context.Background(), &wire.AggQuery{Prefix: "cap", Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if unset.RowsFolded != full.RowsFolded || len(unset.Groups) != len(full.Groups) {
		t.Fatalf("unset window folded %d rows / %d groups, want %d / %d",
			unset.RowsFolded, len(unset.Groups), full.RowsFolded, len(full.Groups))
	}
}
