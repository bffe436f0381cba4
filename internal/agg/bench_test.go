package agg

import (
	"math/rand"
	"testing"

	"littletable/internal/schema"
)

// BenchmarkMergeGroups folds eight per-table partials pairwise, the way a
// shard folds its tables and the router folds shard sections: 500 groups
// per input, 6 rows a group, a uniform 0–1e6 quantile column. One op is
// the seven merges of one query.
func BenchmarkMergeGroups(b *testing.B) {
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

// BenchmarkAccumulatorAdd builds an accumulator and folds 4,096 rows into
// 64 (bucket, network) groups through the count, sum, min, max, avg and
// p95 aggregates, the per-row work every AggQuery, rollup and SQL
// aggregate does. One op is one constructor plus 4,096 Adds; ns/row
// divides out the rows.
func BenchmarkAccumulatorAdd(b *testing.B) {
	spec := Spec{BucketWidth: 60, GroupCols: 1, Aggs: []Agg{
		{Func: Count},
		{Func: Sum, Col: "bytes"},
		{Func: Min, Col: "rate"},
		{Func: Max, Col: "rate"},
		{Func: Avg, Col: "rate"},
		{Func: Quantile, Col: "bytes", Q: 0.95},
	}}
	const rows = 4096
	rng := rand.New(rand.NewSource(1))
	in := make([]schema.Row, rows)
	for i := range in {
		in[i] = testRow(int64(i%16), int64(i%7), int64(i/16%4)*60, rng.Float64()*100, rng.Int63n(1_000_000))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		acc, err := NewAccumulator(testSchema(), spec)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range in {
			acc.Add(r)
		}
		if acc.NumGroups() != 64 {
			b.Fatalf("%d groups, want 64", acc.NumGroups())
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
}
