package agg

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"littletable/internal/ltval"
	"littletable/internal/race"
	"littletable/internal/schema"
)

func testSchema() *schema.Schema {
	return schema.MustNew([]schema.Column{
		{Name: "network", Type: ltval.Int64},
		{Name: "device", Type: ltval.Int64},
		{Name: "ts", Type: ltval.Timestamp},
		{Name: "rate", Type: ltval.Double},
		{Name: "bytes", Type: ltval.Int64},
	}, []string{"network", "device", "ts"})
}

func testRow(n, d, ts int64, rate float64, bytes int64) schema.Row {
	return schema.Row{
		ltval.NewInt64(n), ltval.NewInt64(d), ltval.NewTimestamp(ts),
		ltval.NewDouble(rate), ltval.NewInt64(bytes),
	}
}

func testSpec() Spec {
	return Spec{
		BucketWidth: 60,
		GroupCols:   1,
		Aggs: []Agg{
			{Func: Count},
			{Func: Sum, Col: "bytes"},
			{Func: Sum, Col: "rate"},
			{Func: Min, Col: "rate"},
			{Func: Max, Col: "bytes"},
			{Func: Avg, Col: "rate"},
			{Func: Quantile, Col: "rate", Q: 0.5},
		},
	}
}

func mustAcc(t *testing.T, spec Spec) *Accumulator {
	t.Helper()
	acc, err := NewAccumulator(testSchema(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return acc
}

func TestValidateSpecRejects(t *testing.T) {
	sc := testSchema()
	bad := []Spec{
		{BucketWidth: -1, Aggs: []Agg{{Func: Count}}},
		{GroupCols: 3, Aggs: []Agg{{Func: Count}}}, // only 2 non-ts key cols
		{GroupCols: -1, Aggs: []Agg{{Func: Count}}},
		{Aggs: nil},
		{Aggs: []Agg{{Func: Sum, Col: "nope"}}},
		{Aggs: []Agg{{Func: Func(99)}}},
		{Aggs: []Agg{{Func: Quantile, Col: "rate", Q: 1.5}}},
		{Aggs: []Agg{{Func: Quantile, Col: "rate", Q: math.NaN()}}},
	}
	for i, s := range bad {
		if err := ValidateSpec(sc, s); err == nil {
			t.Errorf("spec %d accepted: %+v", i, s)
		}
	}
	if err := ValidateSpec(sc, testSpec()); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func TestAccumulatorGroupsAndBuckets(t *testing.T) {
	acc := mustAcc(t, testSpec())
	// Two networks, two buckets; bucket 60..119 for network 2 left empty —
	// empty buckets must simply not exist in the output, not appear as
	// zero groups.
	acc.Add(testRow(1, 1, 10, 2.0, 100))
	acc.Add(testRow(1, 2, 50, 4.0, 300))
	acc.Add(testRow(1, 1, 70, 6.0, 200))
	acc.Add(testRow(2, 1, 30, 1.0, 50))
	groups := acc.Groups()
	if len(groups) != 3 {
		t.Fatalf("%d groups, want 3 (empty buckets must not materialize)", len(groups))
	}
	// Sorted by (bucket, key): (0,n1), (0,n2), (60,n1).
	wantBuckets := []int64{0, 0, 60}
	wantNets := []int64{1, 2, 1}
	for i, g := range groups {
		if g.Bucket != wantBuckets[i] || g.Key[0].Int != wantNets[i] {
			t.Fatalf("group %d = (bucket %d, net %d), want (%d, %d)",
				i, g.Bucket, g.Key[0].Int, wantBuckets[i], wantNets[i])
		}
	}
	outs := Finalize(testSpec(), groups[:1])
	// Group (bucket 0, network 1): rows (2.0, 100), (4.0, 300).
	vals := outs[0].Values
	if vals[0].Int != 2 {
		t.Errorf("count = %d, want 2", vals[0].Int)
	}
	if vals[1].Int != 400 {
		t.Errorf("sum bytes = %d, want 400", vals[1].Int)
	}
	if vals[2].Float != 6.0 {
		t.Errorf("sum rate = %g, want 6", vals[2].Float)
	}
	if vals[3].Float != 2.0 || vals[4].Int != 300 {
		t.Errorf("min rate / max bytes = %g / %d, want 2 / 300", vals[3].Float, vals[4].Int)
	}
	if vals[5].Float != 3.0 {
		t.Errorf("avg rate = %g, want 3", vals[5].Float)
	}
	// DDSketch is approximate: the p50 of {2, 4} must land within the
	// sketch's relative accuracy of one of the inputs' bucket values.
	if p := vals[6].Float; p < 2*(1-2*sketchAlpha) || p > 4*(1+2*sketchAlpha) {
		t.Errorf("p50 = %g, want within sketch accuracy of [2, 4]", p)
	}
}

func TestNegativeTimestampBuckets(t *testing.T) {
	spec := Spec{BucketWidth: 60, Aggs: []Agg{{Func: Count}}}
	acc := mustAcc(t, spec)
	acc.Add(testRow(1, 1, -1, 0, 0))  // bucket -60
	acc.Add(testRow(1, 1, -60, 0, 0)) // bucket -60
	acc.Add(testRow(1, 1, -61, 0, 0)) // bucket -120
	groups := acc.Groups()
	if len(groups) != 2 || groups[0].Bucket != -120 || groups[1].Bucket != -60 {
		t.Fatalf("negative buckets wrong: %+v", groups)
	}
	if groups[1].States[0].N != 2 {
		t.Fatalf("bucket -60 count = %d, want 2", groups[1].States[0].N)
	}
	// A bucket whose true floor lies below math.MinInt64 clamps to it,
	// sorting before every other bucket instead of wrapping past them.
	for _, c := range []struct{ ts, width, want int64 }{
		{math.MinInt64, 60, math.MinInt64},
		{math.MinInt64 + 1, 60_000_000, math.MinInt64},
		{math.MinInt64 + 8, 60, math.MinInt64 + 8}, // a multiple of 60
		{math.MaxInt64, 60, math.MaxInt64 - 7},
	} {
		if got := (Spec{BucketWidth: c.width}).BucketStart(c.ts); got != c.want {
			t.Errorf("BucketStart(%d) at width %d = %d, want %d", c.ts, c.width, got, c.want)
		}
	}
	acc = mustAcc(t, Spec{BucketWidth: 60_000_000, Aggs: []Agg{{Func: Count}}})
	acc.Add(testRow(1, 1, 1_700_000_000_000_000, 0, 0))
	acc.Add(testRow(1, 1, math.MinInt64+1, 0, 0))
	if groups := acc.Groups(); len(groups) != 2 || groups[0].Bucket != math.MinInt64 || groups[1].Bucket != 1_699_999_980_000_000 {
		t.Fatalf("far-past row's buckets = %+v, want [%d 1699999980000000]", groups, int64(math.MinInt64))
	}
}

// TestAddContinuingGroupDoesNotAllocate pins the fold's allocations: a
// row in the previous row's group folds into it without allocating, and a
// key-ordered fold of 500 groups allocates its groups from slabs, a few
// times per doubling, not several times per group.
func TestAddContinuingGroupDoesNotAllocate(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	acc := mustAcc(t, testSpec())
	row := testRow(1, 1, 10, 2.5, 100)
	acc.Add(row)
	if n := testing.AllocsPerRun(1000, func() { acc.Add(row) }); n != 0 {
		t.Errorf("a row continuing its group allocates %v times, want 0", n)
	}
	spec := testSpec()
	spec.GroupCols = 2
	// 53 when this was written: the constructor's 6, 8 slab chunks of 4
	// slices each for 512 groups, and the group list's doublings.
	const maxAllocs = 64
	n := testing.AllocsPerRun(10, func() {
		acc := mustAcc(t, spec)
		for g := int64(0); g < 500; g++ {
			for r := int64(0); r < 6; r++ {
				acc.Add(testRow(g/50, g%50, r*10, float64(r), g*r))
			}
		}
		if len(acc.Groups()) != 500 {
			t.Fatalf("%d groups, want 500", acc.NumGroups())
		}
	})
	if n > maxAllocs {
		t.Errorf("a key-ordered fold of 500 groups allocates %v times, want at most %d", n, maxAllocs)
	}
}

// TestGroupIdentityIsKeyBytes: a row continues the previous row's group
// only if its key bytes are that group's. An Int32 and an Int64 of one
// number compare equal but encode differently, so they stay two groups,
// as they are when found through the index.
func TestGroupIdentityIsKeyBytes(t *testing.T) {
	acc, err := NewAccumulatorBy(testSchema(), Spec{Aggs: []Agg{{Func: Count}}}, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []ltval.Value{ltval.NewInt64(5), ltval.NewInt32(5), ltval.NewInt32(5)} {
		row := testRow(1, 1, 0, 0, 0)
		row[4] = v
		acc.Add(row)
	}
	if n := acc.NumGroups(); n != 2 {
		t.Fatalf("%d groups, want 2: the Int32 rows joined the Int64 row's group", n)
	}
}

// TestNaNSkippedByNumerics pins the NaN policy: NaN float values are
// skipped by sum/avg/min/max/quantile, while Count counts rows.
func TestNaNSkippedByNumerics(t *testing.T) {
	acc := mustAcc(t, testSpec())
	nan := math.NaN()
	acc.Add(testRow(1, 1, 0, nan, 10))
	acc.Add(testRow(1, 2, 1, 5.0, 20))
	acc.Add(testRow(1, 3, 2, nan, 30))
	g := acc.Groups()[0]
	if g.States[0].N != 3 {
		t.Errorf("count = %d, want 3 (Count counts rows, not values)", g.States[0].N)
	}
	if g.States[2].N != 1 || g.States[2].FloatSum != 5.0 {
		t.Errorf("sum rate folded %d values totalling %g, want 1 / 5", g.States[2].N, g.States[2].FloatSum)
	}
	if g.States[3].MM.Float != 5.0 || g.States[3].N != 1 {
		t.Errorf("min rate = %g over %d values, want 5 over 1", g.States[3].MM.Float, g.States[3].N)
	}
	out := Finalize(testSpec(), []Group{g})[0]
	if out.Values[5].Float != 5.0 {
		t.Errorf("avg = %g, want 5 (NaNs excluded from both sum and divisor)", out.Values[5].Float)
	}
	// All-NaN group: numeric aggregates have nothing; avg and quantile
	// finalize to NaN, min/max to no value.
	acc2 := mustAcc(t, testSpec())
	acc2.Add(testRow(1, 1, 0, nan, 7))
	g2 := acc2.Groups()[0]
	out2 := Finalize(testSpec(), []Group{g2})[0]
	if !math.IsNaN(out2.Values[5].Float) {
		t.Errorf("all-NaN avg = %v, want NaN", out2.Values[5])
	}
	if out2.Values[3].Type != ltval.Invalid {
		t.Errorf("all-NaN min = %v, want no value", out2.Values[3])
	}
	if out2.Values[0].Int != 1 {
		t.Errorf("all-NaN count = %d, want 1", out2.Values[0].Int)
	}
}

// TestIntSumSaturation pins sticky saturation through both folding and
// merging: an overflowed sum clamps at ±MaxInt64 and stays clamped.
func TestIntSumSaturation(t *testing.T) {
	spec := Spec{Aggs: []Agg{{Func: Sum, Col: "bytes"}}}
	acc := mustAcc(t, spec)
	huge := int64(1) << 62
	for i := int64(0); i < 4; i++ {
		acc.Add(testRow(1, i, i, 0, huge))
	}
	st := acc.Groups()[0].States[0]
	if !st.Saturated || st.IntSum != math.MaxInt64 {
		t.Fatalf("sum = %d saturated=%v, want MaxInt64 sticky", st.IntSum, st.Saturated)
	}
	// Negative direction.
	acc2 := mustAcc(t, spec)
	for i := int64(0); i < 4; i++ {
		acc2.Add(testRow(1, i, i, 0, -huge))
	}
	st2 := acc2.Groups()[0].States[0]
	if !st2.Saturated || st2.IntSum != math.MinInt64 {
		t.Fatalf("negative sum = %d saturated=%v, want MinInt64 sticky", st2.IntSum, st2.Saturated)
	}
	// Merging a saturated partial with a normal one keeps the clamp in
	// either merge order.
	accA := mustAcc(t, spec)
	accA.Add(testRow(1, 0, 0, 0, huge))
	accA.Add(testRow(1, 1, 1, 0, huge))
	accA.Add(testRow(1, 2, 2, 0, huge)) // saturates
	accB := mustAcc(t, spec)
	accB.Add(testRow(1, 3, 3, 0, 5))
	ab := MergeGroups(spec, accA.Groups(), accB.Groups())
	ba := MergeGroups(spec, accB.Groups(), accA.Groups())
	for _, m := range [][]Group{ab, ba} {
		st := m[0].States[0]
		if !st.Saturated || st.IntSum != math.MaxInt64 {
			t.Fatalf("merged sum = %d saturated=%v, want sticky MaxInt64", st.IntSum, st.Saturated)
		}
	}
}

// TestMergeEqualsWhole is the partial-aggregation contract: folding a
// row set in one accumulator equals splitting it arbitrarily, folding
// each part, and merging — for every aggregate including the sketch.
func TestMergeEqualsWhole(t *testing.T) {
	spec := testSpec()
	var rows []schema.Row
	for i := int64(0); i < 200; i++ {
		rows = append(rows, testRow(1+i%3, i%7, i*13, float64((i*37)%101)-50, (i*29)%997))
	}
	whole := mustAcc(t, spec)
	for _, r := range rows {
		whole.Add(r)
	}
	for _, split := range []int{1, 50, 117, 199} {
		a, b := mustAcc(t, spec), mustAcc(t, spec)
		for _, r := range rows[:split] {
			a.Add(r)
		}
		for _, r := range rows[split:] {
			b.Add(r)
		}
		merged := MergeGroups(spec, a.Groups(), b.Groups())
		if !groupsEqual(t, spec, whole.Groups(), merged) {
			t.Fatalf("split at %d: merged partials differ from whole-set aggregation", split)
		}
	}
}

// TestMergeAssociativity: three-way merges must agree regardless of
// association order — the property the router relies on when combining
// shard partials whose own sections were merged in arbitrary order.
func TestMergeAssociativity(t *testing.T) {
	spec := testSpec()
	mk := func(seed int64) []Group {
		acc := mustAcc(t, spec)
		for i := int64(0); i < 60; i++ {
			v := seed*1000 + i
			acc.Add(testRow(1+v%2, v%5, v*17, float64(v%89)*1.5, v%611))
		}
		return acc.Groups()
	}
	a, b, c := mk(1), mk(2), mk(3)
	left := MergeGroups(spec, MergeGroups(spec, a, b), c)
	right := MergeGroups(spec, a, MergeGroups(spec, b, c))
	if !groupsEqual(t, spec, left, right) {
		t.Fatal("(a+b)+c != a+(b+c)")
	}
	// And merging must not have mutated its inputs: a re-merge from the
	// original partials still agrees.
	again := MergeGroups(spec, MergeGroups(spec, a, b), c)
	if !groupsEqual(t, spec, left, again) {
		t.Fatal("MergeGroups mutated its inputs")
	}
}

// groupsEqual compares two sorted group lists state by state, sketches
// included (bucket-exact, via the serialized form).
func groupsEqual(t *testing.T, spec Spec, x, y []Group) bool {
	t.Helper()
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if CompareGroups(&x[i], &y[i]) != 0 {
			return false
		}
		for j := range x[i].States {
			sx, sy := x[i].States[j], y[i].States[j]
			if sx.N != sy.N || sx.IntSum != sy.IntSum || sx.Saturated != sy.Saturated ||
				sx.FloatSum != sy.FloatSum || sx.HasMM != sy.HasMM {
				return false
			}
			if sx.HasMM && sx.MM.Compare(sy.MM) != 0 {
				return false
			}
			if (sx.Sketch == nil) != (sy.Sketch == nil) {
				return false
			}
			if sx.Sketch != nil {
				bx := sx.Sketch.AppendBinary(nil)
				by := sy.Sketch.AppendBinary(nil)
				if string(bx) != string(by) {
					return false
				}
			}
		}
	}
	return true
}

// TestSketchSubnormalQuantiles holds subnormal values to the same ±1 %
// guarantee as normal ones.
func TestSketchSubnormalQuantiles(t *testing.T) {
	const n, unit = 100000, 1e-315 // n·unit < 2^-1022: every value is subnormal
	s := NewSketch()
	for i := 1; i <= n; i++ {
		s.Add(float64(i) * unit)
	}
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99} {
		// 0.002 covers the rank rounding, at most one value in q·n ≥ 1,000.
		got, want := s.Quantile(q), q*n*unit
		if math.Abs(got/want-1) > sketchAlpha+0.002 {
			t.Errorf("q%.2f = %g, want %g within ±1%%", q, got, want)
		}
	}
}

func TestSketchQuantiles(t *testing.T) {
	s := NewSketch()
	for i := 1; i <= 1000; i++ {
		s.Add(float64(i))
	}
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99} {
		got := s.Quantile(q)
		want := q * 1000
		if got < want*(1-3*sketchAlpha)-2 || got > want*(1+3*sketchAlpha)+2 {
			t.Errorf("q%.2f = %g, want ~%g within relative accuracy", q, got, want)
		}
	}
	if !math.IsNaN(NewSketch().Quantile(0.5)) {
		t.Error("empty sketch quantile should be NaN")
	}
	if !math.IsNaN(s.Quantile(math.NaN())) {
		t.Error("NaN q should be NaN")
	}
	// Negative values and zero walk the rank in order.
	m := NewSketch()
	m.Add(-100)
	m.Add(0)
	m.Add(100)
	if v := m.Quantile(0); v > -100*(1-2*sketchAlpha) {
		t.Errorf("q0 = %g, want ~-100", v)
	}
	if v := m.Quantile(0.5); v != 0 {
		t.Errorf("q0.5 = %g, want 0", v)
	}
	if v := m.Quantile(1); v < 100*(1-2*sketchAlpha) {
		t.Errorf("q1 = %g, want ~100", v)
	}
	// Infinities clamp to the extreme buckets instead of poisoning the
	// index computation.
	inf := NewSketch()
	inf.Add(math.Inf(1))
	inf.Add(math.Inf(-1))
	if inf.Count() != 2 {
		t.Errorf("count with infinities = %d, want 2", inf.Count())
	}
}

func TestSketchMergeAssociativity(t *testing.T) {
	mk := func(lo, hi int) *Sketch {
		s := NewSketch()
		for i := lo; i < hi; i++ {
			v := float64(i*i%1009) - 300
			s.Add(v)
		}
		return s
	}
	a, b, c := mk(0, 100), mk(100, 250), mk(250, 400)
	merge := func(xs ...*Sketch) *Sketch {
		m := NewSketch()
		for _, x := range xs {
			m.Merge(x)
		}
		return m
	}
	left := merge(merge(a, b), c)
	right := merge(a, merge(b, c))
	if string(left.AppendBinary(nil)) != string(right.AppendBinary(nil)) {
		t.Fatal("sketch merge is not associative")
	}
	if left.Count() != 400 {
		t.Fatalf("merged count = %d, want 400", left.Count())
	}
	whole := mk(0, 400)
	if string(left.AppendBinary(nil)) != string(whole.AppendBinary(nil)) {
		t.Fatal("merged sketch differs from whole-set sketch")
	}
}

func TestSketchRoundTrip(t *testing.T) {
	s := NewSketch()
	for i := 0; i < 500; i++ {
		s.Add(float64(i%97) - 31.5)
	}
	s.Add(0)
	b := s.AppendBinary(nil)
	got, err := UnmarshalSketch(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.AppendBinary(nil)) != string(b) {
		t.Fatal("round trip changed the sketch")
	}
	if _, err := UnmarshalSketch(b[:len(b)-1]); err == nil {
		t.Error("truncated sketch accepted")
	}
	if _, err := UnmarshalSketch(append(append([]byte(nil), b...), 0)); err == nil {
		t.Error("trailing garbage accepted")
	}
}

func TestOutputColumnNames(t *testing.T) {
	cases := []struct {
		a    Agg
		want string
	}{
		{Agg{Func: Count}, "count"},
		{Agg{Func: Sum, Col: "bytes"}, "sum_bytes"},
		{Agg{Func: Avg, Col: "rate"}, "avg_rate"},
		{Agg{Func: Quantile, Col: "lat", Q: 0.95}, "p95_lat"},
		{Agg{Func: Quantile, Col: "lat", Q: 0.5}, "p50_lat"},
	}
	for _, c := range cases {
		if got := c.a.OutputColumn(); got != c.want {
			t.Errorf("%+v output column = %q, want %q", c.a, got, c.want)
		}
	}
}

func TestGroupCapIsMemoryBound(t *testing.T) {
	spec := Spec{BucketWidth: 1, GroupCols: 2, Aggs: []Agg{{Func: Count}}}
	acc := mustAcc(t, spec)
	for i := int64(0); i < 1000; i++ {
		acc.Add(testRow(i, i, i, 0, 0))
	}
	if acc.NumGroups() != 1000 || acc.Rows() != 1000 {
		t.Fatalf("groups/rows = %d/%d, want 1000/1000", acc.NumGroups(), acc.Rows())
	}
}

func TestBucketWidthZeroSingleBucket(t *testing.T) {
	spec := Spec{Aggs: []Agg{{Func: Count}}}
	acc := mustAcc(t, spec)
	for _, ts := range []int64{-1 << 40, 0, 1 << 40} {
		acc.Add(testRow(1, 1, ts, 0, 0))
	}
	groups := acc.Groups()
	if len(groups) != 1 || groups[0].Bucket != 0 || groups[0].States[0].N != 3 {
		t.Fatalf("width 0 should fold all time into one bucket: %+v", groups)
	}
}

func ExampleAgg_OutputColumn() {
	fmt.Println(Agg{Func: Quantile, Col: "latency", Q: 0.95}.OutputColumn())
	// Output: p95_latency
}

// sketchImage builds a raw sketch image: the zero count, then each sign's
// (index, count) entries exactly as listed, canonical or not.
func sketchImage(zero uint64, pos, neg [][2]int64) []byte {
	b := binary.AppendUvarint(nil, zero)
	for _, bins := range [][][2]int64{pos, neg} {
		b = binary.AppendUvarint(b, uint64(len(bins)))
		for _, e := range bins {
			b = binary.AppendVarint(b, e[0])
			b = binary.AppendUvarint(b, uint64(e[1]))
		}
	}
	return b
}

// TestUnmarshalSketchRejectsNonCanonical: only AppendBinary's own form
// decodes. A repeated index once summed two MaxInt64 counts into a sketch
// whose Count was −2 and whose re-encode was rejected.
func TestUnmarshalSketchRejectsNonCanonical(t *testing.T) {
	bad := map[string][]byte{
		"repeated index, wrapping": sketchImage(0, [][2]int64{{1, math.MaxInt64}, {1, math.MaxInt64}}, nil),
		"repeated index":           sketchImage(0, nil, [][2]int64{{5, 1}, {5, 1}}),
		"descending index":         sketchImage(0, [][2]int64{{2, 1}, {1, 1}}, nil),
		"total over int64":         sketchImage(0, [][2]int64{{1, math.MaxInt64}}, [][2]int64{{1, 1}}),
		"zero count plus bins":     sketchImage(math.MaxInt64, [][2]int64{{-3, 1}}, nil),
	}
	for name, img := range bad {
		if s, err := UnmarshalSketch(img); err == nil {
			t.Errorf("%s: accepted, Count = %d", name, s.Count())
		}
	}
	ok := sketchImage(math.MaxInt64-3, [][2]int64{{-1, 1}, {7, 1}}, [][2]int64{{math.MinInt32, 1}})
	s, err := UnmarshalSketch(ok)
	if err != nil {
		t.Fatalf("canonical image rejected: %v", err)
	}
	if s.Count() != math.MaxInt64 || !bytes.Equal(s.AppendBinary(nil), ok) {
		t.Fatalf("canonical image: Count = %d, re-encode %x, want %x", s.Count(), s.AppendBinary(nil), ok)
	}
}

// TestSketchBinBound adds values across the whole float64 range and checks
// the bound Sketch's doc comment states: at most 72,710 bins per sign,
// sorted and unique, surviving an encode round trip, with quantiles
// monotone in q.
func TestSketchBinBound(t *testing.T) {
	lo, hi := sketchIndex(math.SmallestNonzeroFloat64), sketchIndex(math.MaxFloat64)
	if lo != -37220 || hi != 35488 {
		t.Fatalf("finite index range [%d, %d], doc comment bounds it by [-37220, 35488]", lo, hi)
	}
	const maxBins = 72710 // 35488 − (−37220) + 1 finite buckets, plus ±Inf's
	// Below 2^-1064 (1,024 times the smallest subnormal) representable
	// values are sparser than buckets, so some of those stay empty; every
	// bucket above it is filled, plus ±Inf's.
	filled := int(hi-sketchIndex(0x1p-1064)) + 2
	s := NewSketch()
	for _, v := range []float64{0, math.Inf(1), math.MaxFloat64, math.SmallestNonzeroFloat64, 0x1p-1022} {
		s.Add(v)
		s.Add(-v)
	}
	// Steps of 0.01 in ln v are finer than a bucket (ln γ ≈ 0.02). The walk
	// starts below ln of the smallest subnormal (−744.44), a literal since
	// math.Log is wrong for subnormals on amd64.
	for x := -745.0; x < math.Log(math.MaxFloat64); x += 0.01 {
		s.Add(math.Exp(x))
		s.Add(-math.Exp(x))
	}
	for sign, bins := range [][]bin{s.pos, s.neg} {
		if len(bins) > maxBins || len(bins) < filled {
			t.Errorf("sign %d holds %d bins, want %d to %d", sign, len(bins), filled, maxBins)
		}
		for i := 1; i < len(bins); i++ {
			if bins[i].idx <= bins[i-1].idx {
				t.Fatalf("sign %d: bin %d index %d after %d", sign, i, bins[i].idx, bins[i-1].idx)
			}
		}
		if last := bins[len(bins)-1].idx; last != math.MaxInt32 {
			t.Errorf("sign %d: last bin %d, want the ±Inf bucket", sign, last)
		}
	}
	img := s.AppendBinary(nil)
	got, err := UnmarshalSketch(img)
	if err != nil || !bytes.Equal(got.AppendBinary(nil), img) || got.Count() != s.Count() {
		t.Fatalf("round trip: err %v, count %d want %d", err, got.Count(), s.Count())
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1; q += 0.001 {
		v := s.Quantile(q)
		if math.IsNaN(v) || v < prev {
			t.Fatalf("Quantile(%g) = %g after %g", q, v, prev)
		}
		prev = v
	}
}
