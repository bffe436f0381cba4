package router

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"littletable/internal/agg"
	"littletable/internal/ltval"
	"littletable/internal/schema"
	"littletable/internal/wire"
)

func aggTestSchema() *schema.Schema {
	return schema.MustNew([]schema.Column{
		{Name: "dev", Type: ltval.Int64},
		{Name: "ts", Type: ltval.Timestamp},
		{Name: "rate", Type: ltval.Double},
		{Name: "bytes", Type: ltval.Int64},
	}, []string{"dev", "ts"})
}

// aggTestRows returns one table's rows in primary-key order, the order a
// shard folds them in: 6 devices × 20 timestamps, seed-dependent values
// with NaN rates and fractional sums that only a same-order fold gets
// bit-identical.
func aggTestRows(seed int64) []schema.Row {
	var rows []schema.Row
	for d := int64(0); d < 6; d++ {
		for i := int64(0); i < 20; i++ {
			rate := float64((seed*31+d*7+i*13)%97)/7 - 5
			if (seed+d+i)%11 == 0 {
				rate = math.NaN()
			}
			rows = append(rows, schema.Row{ltval.NewInt64(d), ltval.NewTimestamp(1000 + i*10),
				ltval.NewDouble(rate), ltval.NewInt64(seed*1000 + d*37 + i)})
		}
	}
	return rows
}

func aggTestSpec() agg.Spec {
	return agg.Spec{BucketWidth: 50, GroupCols: 1, Aggs: []agg.Agg{
		{Func: agg.Count},
		{Func: agg.Sum, Col: "bytes"},
		{Func: agg.Sum, Col: "rate"},
		{Func: agg.Min, Col: "rate"},
		{Func: agg.Max, Col: "bytes"},
		{Func: agg.Avg, Col: "rate"},
		{Func: agg.Quantile, Col: "rate", Q: 0.9},
	}}
}

// foldRows folds rows into one table's partial groups.
func foldRows(t *testing.T, spec agg.Spec, rows []schema.Row) []agg.Group {
	t.Helper()
	acc, err := agg.NewAccumulator(aggTestSchema(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		acc.Add(r)
	}
	return acc.Groups()
}

// sameGroups fails unless got and want carry the same groups with the
// same states, compared by their wire encoding: every bit the wire
// carries, float sums and sketch bins included.
func sameGroups(t *testing.T, spec agg.Spec, label string, got, want []agg.Group) {
	t.Helper()
	g := (&wire.AggResult{Spec: spec, Groups: got}).Encode()
	w := (&wire.AggResult{Spec: spec, Groups: want}).Encode()
	if string(g) != string(w) {
		t.Fatalf("%s: %d groups differ from the %d expected", label, len(got), len(want))
	}
}

// TestRouterAggQuery scatters AggQuery over two shards and several
// tables, one of them also present on its non-owner shard (the shape a
// table has mid-migration). The router must count that table once, from
// its owner; merge the rest into exactly the model's left fold; hand a
// WantPartials client the sorted, deduplicated sections unmerged; and
// still report the table and group caps as truncation.
func TestRouterAggQuery(t *testing.T) {
	s1, s2 := startShard(t), startShard(t)
	r, addr := startRouter(t, Options{}, s1, s2)
	c := fastClient(t, addr)
	spec := aggTestSpec()
	sc := aggTestSchema()

	const tables = 6
	names := make([]string, tables)
	model := map[string][]agg.Group{}
	owners := map[string]bool{}
	wantRows := int64(0)
	for i := range names {
		name := fmt.Sprintf("fan_t%d", i)
		names[i] = name
		if err := c.CreateTable(name, sc, 0); err != nil {
			t.Fatal(err)
		}
		tab, err := c.OpenTable(name)
		if err != nil {
			t.Fatal(err)
		}
		rows := aggTestRows(int64(i + 1))
		if err := tab.InsertNow(rows); err != nil {
			t.Fatal(err)
		}
		model[name] = foldRows(t, spec, rows)
		wantRows += int64(len(rows))
		owner, _ := r.Placement(name)
		owners[owner] = true
	}
	if len(owners) != 2 {
		t.Fatalf("all %d tables on one shard; the test needs both", tables)
	}

	// A second copy of fan_t0, with other rows, on the shard that does
	// not own it.
	dup := names[0]
	owner, _ := r.Placement(dup)
	other := s1
	if other.addr == owner {
		other = s2
	}
	direct := fastClient(t, other.addr)
	if err := direct.CreateTable(dup, sc, 0); err != nil {
		t.Fatal(err)
	}
	dt, err := direct.OpenTable(dup)
	if err != nil {
		t.Fatal(err)
	}
	dupRows := aggTestRows(99)
	if err := dt.InsertNow(dupRows); err != nil {
		t.Fatal(err)
	}

	var wantMerged []agg.Group
	for _, name := range names {
		wantMerged = agg.MergeGroups(spec, wantMerged, model[name])
	}
	ctx := context.Background()

	res, err := c.AggQuery(ctx, &wire.AggQuery{Prefix: "fan_", Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated || len(res.Tables) != 0 {
		t.Fatalf("merged reply: truncated=%v, %d sections; want false, none", res.Truncated, len(res.Tables))
	}
	sameGroups(t, spec, "merged groups", res.Groups, wantMerged)
	got, want := agg.Finalize(spec, res.Groups), agg.Finalize(spec, wantMerged)
	for i := range want {
		for j := range want[i].Values {
			g, w := got[i].Values[j], want[i].Values[j]
			if g.Type != w.Type || g.Int != w.Int || math.Float64bits(g.Float) != math.Float64bits(w.Float) {
				t.Fatalf("group %d %s = %v, want %v", i, spec.Aggs[j].OutputColumn(), g, w)
			}
		}
	}

	parts, err := c.AggQuery(ctx, &wire.AggQuery{Prefix: "fan_", Spec: spec, WantPartials: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(parts.Groups) != 0 {
		t.Fatalf("WantPartials through the router: %d merged groups, want none", len(parts.Groups))
	}
	var secNames []string
	for _, sec := range parts.Tables {
		secNames = append(secNames, sec.Table)
		sameGroups(t, spec, "section "+sec.Table, sec.Groups, model[sec.Table])
	}
	if !slices.Equal(secNames, names) {
		t.Fatalf("sections %v, want %v, each once and sorted", secNames, names)
	}
	// The rows folded include the non-owner copy's: the shards scanned
	// it, the router only dropped its section.
	if want := wantRows + int64(len(dupRows)); parts.RowsFolded != want {
		t.Fatalf("RowsFolded = %d, want %d", parts.RowsFolded, want)
	}

	capped, err := c.AggQuery(ctx, &wire.AggQuery{Prefix: "fan_", Spec: spec, MaxTables: 2, WantPartials: true})
	if err != nil {
		t.Fatal(err)
	}
	if !capped.Truncated || len(capped.Tables) != 2 {
		t.Fatalf("MaxTables 2: truncated=%v, %d sections", capped.Truncated, len(capped.Tables))
	}
	capped, err = c.AggQuery(ctx, &wire.AggQuery{Prefix: "fan_", Spec: spec, MaxGroups: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !capped.Truncated {
		t.Fatal("MaxGroups 4 not reported as truncation")
	}
}
