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
