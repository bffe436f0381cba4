package agg

import (
	"math/rand"
	"slices"
	"testing"

	"littletable/internal/schema"
)

// mergeInputs returns eight per-table partials of 500 groups each, 6 rows
// a group and a uniform 0–1e6 quantile column: one scattered query's
// sections.
func mergeInputs(b *testing.B) (Spec, [][]Group) {
	spec := Spec{BucketWidth: 60, GroupCols: 2, Aggs: []Agg{
		{Func: Count},
		{Func: Sum, Col: "bytes"},
		{Func: Min, Col: "rate"},
		{Func: Max, Col: "rate"},
		{Func: Avg, Col: "rate"},
		{Func: Quantile, Col: "bytes", Q: 0.95},
	}}
	rng := rand.New(rand.NewSource(1))
	inputs := make([][]Group, 8)
	for i := range inputs {
		acc, err := NewAccumulator(testSchema(), spec)
		if err != nil {
			b.Fatal(err)
		}
		for g := int64(0); g < 500; g++ {
			for r := int64(0); r < 6; r++ {
				acc.Add(testRow(g%10, g, r, rng.Float64()*100, rng.Int63n(1_000_000)))
			}
		}
		inputs[i] = acc.Groups()
	}
	return spec, inputs
}

// BenchmarkMergeGroups folds the eight partials pairwise, with copying
// merges that leave their inputs intact. One op is the seven merges of
// one query.
func BenchmarkMergeGroups(b *testing.B) {
	spec, inputs := mergeInputs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		out := inputs[0]
		for _, in := range inputs[1:] {
			out = MergeGroups(spec, out, in)
		}
		if len(out) != 500 {
			b.Fatalf("%d groups, want 500", len(out))
		}
	}
}

// BenchmarkMergeLists folds the eight partials in one k-way MergeLists,
// the way a shard folds its tables and the router folds the sections.
// MergeLists consumes its inputs, so each op folds fresh copies, made
// with the timer stopped.
func BenchmarkMergeLists(b *testing.B) {
	spec, inputs := mergeInputs(b)
	lists := make([][]Group, len(inputs))
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		for i, in := range inputs {
			lists[i] = slices.Clone(in)
			for g := range lists[i] {
				states := slices.Clone(in[g].States)
				for k := range states {
					if sk := states[k].Sketch; sk != nil {
						states[k].Sketch = mergedSketch(sk, nil)
					}
				}
				lists[i][g].States = states
			}
		}
		b.StartTimer()
		if out := MergeLists(spec, lists); len(out) != 500 {
			b.Fatalf("%d groups, want 500", len(out))
		}
	}
}

// BenchmarkAccumulatorAdd builds an accumulator and folds rows through
// the count, sum, min, max, avg and p95 aggregates, the per-row work every
// AggQuery, rollup and SQL aggregate does. One op is one constructor plus
// every Add; ns/row divides out the rows.
//
//   - scattered: 4,096 rows into 64 (bucket, network) groups, each row in
//     a different group than the row before it;
//   - key-ordered: agg_fanout's shard fold, 500 (network, device) groups
//     of 6 rows in one bucket, in key order as a table scan yields them.
func BenchmarkAccumulatorAdd(b *testing.B) {
	spec := Spec{BucketWidth: 60, Aggs: []Agg{
		{Func: Count},
		{Func: Sum, Col: "bytes"},
		{Func: Min, Col: "rate"},
		{Func: Max, Col: "rate"},
		{Func: Avg, Col: "rate"},
		{Func: Quantile, Col: "bytes", Q: 0.95},
	}}
	rng := rand.New(rand.NewSource(1))
	var scattered, ordered []schema.Row
	for i := 0; i < 4096; i++ {
		scattered = append(scattered, testRow(int64(i%16), int64(i%7), int64(i/16%4)*60, rng.Float64()*100, rng.Int63n(1_000_000)))
	}
	for g := int64(0); g < 500; g++ {
		for r := int64(0); r < 6; r++ {
			ordered = append(ordered, testRow(g/50, g%50, r*10, rng.Float64()*100, rng.Int63n(1_000_000)))
		}
	}
	cases := []struct {
		name      string
		groupCols int
		rows      []schema.Row
		groups    int
	}{
		{"scattered", 1, scattered, 64},
		{"key-ordered", 2, ordered, 500},
	}
	for _, c := range cases {
		spec := spec
		spec.GroupCols = c.groupCols
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				acc, err := NewAccumulator(testSchema(), spec)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range c.rows {
					acc.Add(r)
				}
				if len(acc.Groups()) != c.groups {
					b.Fatalf("%d groups, want %d", acc.NumGroups(), c.groups)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(c.rows)), "ns/row")
		})
	}
}
