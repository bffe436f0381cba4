package agg

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"littletable/internal/schema"
)

// FuzzAggAccumulator drives the partial-aggregation contract from
// arbitrary bytes: a row stream decoded from the input is grouped by a
// fuzz-chosen subset of the columns (key or not, the timestamp and the
// NaN-bearing double included, in a fuzz-chosen rotation), folded whole
// and folded as two split halves merged, and the results must agree —
// the property the whole distributed read path (shard partials, router
// merge, rollup replay) is built on. The same rows are also folded with
// each group's rows together, as a key-ordered scan yields them, which
// must match the arrival-order fold bit for bit. Two aggregates are only
// order-dependent by design, so the comparison encodes their real
// contract rather than bit equality: a saturating int sum is exact
// until any fold order overflows (then it clamps, and WHERE it clamps
// depends on order), and a float sum reassociates, so it is exact only
// up to rounding bounded by the folded magnitudes. Everything else —
// counts, min/max, sketches — must match bit-for-bit. Sketch decode of
// fuzzed bytes must never panic either.
func FuzzAggAccumulator(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(6), uint16(1), uint8(1))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}, uint8(0), uint16(0), uint8(0))
	f.Add([]byte{}, uint8(1), uint16(3), uint8(0x1f))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 13, 0, 0, 13, 0, 1, 26, 0, 0, 26, 0, 1}, uint8(0), uint16(1), uint8(0x38))
	f.Fuzz(func(t *testing.T, data []byte, widthByte uint8, splitRaw uint16, groupMask uint8) {
		spec := Spec{
			BucketWidth: int64(widthByte), // 0 = single bucket
			Aggs: []Agg{
				{Func: Count},
				{Func: Sum, Col: "bytes"},
				{Func: Sum, Col: "rate"},
				{Func: Min, Col: "bytes"},
				{Func: Max, Col: "rate"},
				{Func: Avg, Col: "rate"},
				{Func: Quantile, Col: "rate", Q: 0.9},
			},
		}
		sc := testSchema()
		var cols []int
		for c := range sc.Columns {
			if groupMask&(1<<c) != 0 {
				cols = append(cols, c)
			}
		}
		if len(cols) > 0 {
			r := int(groupMask>>5) % len(cols)
			cols = slices.Concat(cols[r:], cols[:r])
		}
		var rows [][3]int64 // n, ts, raw value
		for i := 0; i+6 <= len(data); i += 6 {
			n := int64(data[i] % 4)
			ts := int64(int16(binary.LittleEndian.Uint16(data[i+1 : i+3])))
			v := int64(int16(binary.LittleEndian.Uint16(data[i+3 : i+5])))
			if data[i+5]%8 == 0 {
				v = math.MaxInt64 - v // exercise saturation
			}
			rows = append(rows, [3]int64{n, ts, v})
		}
		mk := func() *Accumulator {
			acc, err := NewAccumulatorBy(sc, spec, cols)
			if err != nil {
				t.Fatal(err)
			}
			return acc
		}
		mkRow := func(r [3]int64) schema.Row {
			rate := float64(r[2]) / 3
			if r[2]%13 == 0 {
				rate = math.NaN() // exercise the NaN-skip path
			}
			return testRow(r[0], r[2]%5, r[1], rate, r[2])
		}
		add := func(acc *Accumulator, r [3]int64) { acc.Add(mkRow(r)) }
		whole := mk()
		totalAbs := 0.0
		for _, r := range rows {
			add(whole, r)
			if rate := float64(r[2]) / 3; r[2]%13 != 0 {
				totalAbs += math.Abs(rate)
			}
		}
		wantGroups := whole.Groups()
		if !groupsAscend(wantGroups) {
			t.Fatal("arrival-order Groups() not strictly ascending by CompareGroups")
		}
		// The same rows with each group's rows together, in arrival order
		// within the group. In (bucket, key) order every new group lands
		// past the last and Groups() skips its sort; in (key, bucket)
		// order, a key-ordered scan's, a key spanning buckets creates
		// groups out of order. Each group folds the same rows in the same
		// order as on arrival, so both must match that fold bit for bit.
		groupOf := func(r [3]int64) Group {
			row := mkRow(r)
			g := Group{Bucket: spec.BucketStart(r[1])}
			for _, c := range cols {
				g.Key = append(g.Key, row[c])
			}
			return g
		}
		for _, keyFirst := range []bool{false, true} {
			ordered := slices.Clone(rows)
			slices.SortStableFunc(ordered, func(x, y [3]int64) int {
				gx, gy := groupOf(x), groupOf(y)
				if c := schema.CompareKeySlices(gx.Key, gy.Key); keyFirst && c != 0 {
					return c
				}
				return CompareGroups(&gx, &gy)
			})
			acc := mk()
			for _, r := range ordered {
				add(acc, r)
			}
			got := acc.Groups()
			if !groupsAscend(got) {
				t.Fatalf("key-first=%v: Groups() not strictly ascending by CompareGroups", keyFirst)
			}
			if !sameStates(got, wantGroups) {
				t.Fatalf("key-first=%v: grouped fold differs from the arrival-order fold", keyFirst)
			}
		}
		split := 0
		if len(rows) > 0 {
			split = int(splitRaw) % (len(rows) + 1)
		}
		a, b := mk(), mk()
		for _, r := range rows[:split] {
			add(a, r)
		}
		for _, r := range rows[split:] {
			add(b, r)
		}
		merged := MergeGroups(spec, a.Groups(), b.Groups())
		// Reassociating an n-term float sum perturbs it by at most
		// O(n·eps·Σ|vᵢ|); anything past that is a real merge bug.
		floatTol := float64(len(rows)+1) * 1e-14 * (totalAbs + 1)
		if !partialsAgree(spec, wantGroups, merged, floatTol) {
			t.Fatalf("split at %d of %d rows: merged partials != whole", split, len(rows))
		}
		// Sketch decoding of raw fuzz bytes must error or succeed, never
		// panic; a successful decode must re-encode identically.
		if s, err := UnmarshalSketch(data); err == nil {
			if again, err := UnmarshalSketch(s.AppendBinary(nil)); err != nil {
				t.Fatalf("re-decode of re-encoded sketch failed: %v", err)
			} else if string(again.AppendBinary(nil)) != string(s.AppendBinary(nil)) {
				t.Fatal("sketch round trip unstable")
			}
		}
	})
}

// partialsAgree compares a whole-fold against a merged split-fold under
// the aggregation contract: bit equality everywhere except sums, whose
// fold order is observable in two narrow, documented ways — a saturated
// int sum clamps at an order-dependent point, and a float sum carries
// order-dependent rounding bounded by floatTol.
func partialsAgree(spec Spec, whole, merged []Group, floatTol float64) bool {
	if len(whole) != len(merged) {
		return false
	}
	for i := range whole {
		if CompareGroups(&whole[i], &merged[i]) != 0 {
			return false
		}
		for j, a := range spec.Aggs {
			sx, sy := whole[i].States[j], merged[i].States[j]
			if sx.N != sy.N || sx.HasMM != sy.HasMM {
				return false
			}
			if sx.HasMM && sx.MM.Compare(sy.MM) != 0 {
				return false
			}
			switch a.Func {
			case Sum, Avg:
				// Once either fold order overflowed, the clamp point (and
				// whether the other order overflowed at all) depends on
				// ordering; only the un-saturated case is exact.
				if !sx.Saturated && !sy.Saturated && sx.IntSum != sy.IntSum {
					return false
				}
				if !floatsClose(sx.FloatSum, sy.FloatSum, floatTol) {
					return false
				}
			case Quantile:
				if (sx.Sketch == nil) != (sy.Sketch == nil) {
					return false
				}
				if sx.Sketch != nil &&
					string(sx.Sketch.AppendBinary(nil)) != string(sy.Sketch.AppendBinary(nil)) {
					return false
				}
			}
		}
	}
	return true
}

// groupsAscend reports whether groups are strictly ascending by
// CompareGroups, the order Groups() promises.
func groupsAscend(groups []Group) bool {
	for i := 1; i < len(groups); i++ {
		if CompareGroups(&groups[i-1], &groups[i]) >= 0 {
			return false
		}
	}
	return true
}

func floatsClose(a, b, tol float64) bool {
	if a == b || (math.IsNaN(a) && math.IsNaN(b)) {
		return true
	}
	return math.Abs(a-b) <= tol
}

// FuzzMergeLists holds the k-way in-place fold to the pairwise one: for
// 1–8 lists folded from fuzz-built rows (each row lands in one list, so
// the lists are disjoint partials), MergeLists must equal the left fold
// ((l0 + l1) + l2) + … of MergeGroups bit for bit — float sums, clamped
// int sums, min/max and sketch bins included — since it associates the
// same way. A second left fold over the same inputs must agree with the
// first, proving MergeGroups left them unmutated; MergeLists runs on its
// own copies, because it consumes its inputs. Both must agree with one
// accumulator over every row, under FuzzAggAccumulator's contract.
func FuzzMergeLists(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(3), uint8(6), uint8(1))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 8}, uint8(7), uint8(0), uint8(2))
	f.Add([]byte{5, 1, 9, 0, 13, 1, 6, 1, 9, 0, 26, 17, 7, 3, 200, 0, 1, 8}, uint8(2), uint8(1), uint8(0))
	f.Add([]byte{}, uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, kRaw, widthByte, groupCols uint8) {
		k := int(kRaw%8) + 1
		spec := Spec{
			BucketWidth: int64(widthByte),
			GroupCols:   int(groupCols % 3),
			Aggs: []Agg{
				{Func: Count},
				{Func: Sum, Col: "bytes"},
				{Func: Sum, Col: "rate"},
				{Func: Min, Col: "rate"},
				{Func: Max, Col: "rate"},
				{Func: Avg, Col: "rate"},
				{Func: Quantile, Col: "rate", Q: 0.9},
				{Func: Quantile, Col: "bytes", Q: 0.5},
			},
		}
		mk := func() *Accumulator {
			acc, err := NewAccumulator(testSchema(), spec)
			if err != nil {
				t.Fatal(err)
			}
			return acc
		}
		// Two accumulators per list fold the same rows, giving the
		// pairwise and the k-way fold independent copies of each list;
		// whole folds every row, the model both merges must agree with.
		accs := make([][2]*Accumulator, k)
		for i := range accs {
			accs[i] = [2]*Accumulator{mk(), mk()}
		}
		whole, totalAbs := mk(), 0.0
		for i := 0; i+6 <= len(data); i += 6 {
			raw := int64(int16(binary.LittleEndian.Uint16(data[i+3 : i+5])))
			rate := float64(raw) / 3
			switch data[i+5] % 8 {
			case 1:
				rate = math.NaN()
			case 2:
				rate = math.Copysign(0, -1)
			case 3:
				rate = math.Inf(int(raw % 2))
			}
			bytes := raw
			if data[i+5]%16 == 8 {
				bytes = math.MaxInt64 - raw // exercise saturation
			}
			row := testRow(int64(data[i+1]%3), int64(data[i+1]>>4%3), int64(data[i+2]), rate, bytes)
			for _, acc := range accs[int(data[i])%k] {
				acc.Add(row)
			}
			whole.Add(row)
			if !math.IsNaN(rate) {
				totalAbs += math.Abs(rate)
			}
		}
		pairs, lists := make([][]Group, k), make([][]Group, k)
		for i := range accs {
			pairs[i], lists[i] = accs[i][0].Groups(), accs[i][1].Groups()
		}
		leftFold := func() []Group {
			var out []Group
			for _, l := range pairs {
				out = MergeGroups(spec, out, l)
			}
			return out
		}
		want := leftFold()
		if floatTol := float64(len(data)+1) * 1e-14 * (totalAbs + 1); !partialsAgree(spec, whole.Groups(), want, floatTol) {
			t.Fatal("the MergeGroups left fold differs from folding every row at once")
		}
		if !sameStates(want, leftFold()) {
			t.Fatal("a second MergeGroups left fold disagrees with the first: it mutated its inputs")
		}
		if got := MergeLists(spec, lists); !sameStates(got, want) {
			t.Fatalf("MergeLists over %d lists differs from the MergeGroups left fold", k)
		}
	})
}

// sameStates reports whether two group lists are identical bit for bit:
// keys and min/max values by their encoding, float sums by their bits,
// sketches by their bins.
func sameStates(x, y []Group) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if CompareGroups(&x[i], &y[i]) != 0 || len(x[i].States) != len(y[i].States) {
			return false
		}
		for j := range x[i].States {
			sx, sy := x[i].States[j], y[i].States[j]
			if sx.N != sy.N || sx.IsFloat != sy.IsFloat || sx.IntSum != sy.IntSum ||
				sx.Saturated != sy.Saturated || math.Float64bits(sx.FloatSum) != math.Float64bits(sy.FloatSum) ||
				sx.HasMM != sy.HasMM || string(sx.MM.Append(nil)) != string(sy.MM.Append(nil)) ||
				(sx.Sketch == nil) != (sy.Sketch == nil) {
				return false
			}
			if sx.Sketch != nil && string(sx.Sketch.AppendBinary(nil)) != string(sy.Sketch.AppendBinary(nil)) {
				return false
			}
		}
	}
	return true
}
