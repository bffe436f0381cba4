// Package agg implements streaming server-side aggregation (ROADMAP
// item 3): GROUP BY (time-bucket × key-prefix) with count, sum, min,
// max, avg, and a mergeable quantile sketch. An Accumulator folds rows
// one at a time as the merge-sorted query cursor yields them, so memory
// is O(groups), never O(rows); the per-group State values are partial —
// two accumulations of disjoint row sets merge exactly (MergeLists),
// which is what lets a shard return its local aggregate and the router
// combine shard partials without ever seeing a raw row.
//
// The same Spec drives both the MsgAggQuery read path and the
// continuous-downsampling rollup jobs (core.RollupRule), so a dashboard
// query and the background job that pre-materializes it agree on
// bucketing and aggregate semantics by construction.
package agg

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"littletable/internal/ltval"
	"littletable/internal/schema"
)

// Func identifies one aggregate function.
type Func uint8

// The aggregate functions. Count counts rows; the rest fold a numeric
// value column (Min/Max additionally accept strings and blobs).
const (
	Count Func = iota + 1
	Sum
	Min
	Max
	Avg
	Quantile
)

var funcNames = [...]string{
	Count:    "count",
	Sum:      "sum",
	Min:      "min",
	Max:      "max",
	Avg:      "avg",
	Quantile: "quantile",
}

// String returns the lowercase name of the function.
func (f Func) String() string {
	if int(f) < len(funcNames) && funcNames[f] != "" {
		return funcNames[f]
	}
	return fmt.Sprintf("func(%d)", uint8(f))
}

// Valid reports whether f is a defined aggregate function.
func (f Func) Valid() bool { return f >= Count && f <= Quantile }

// Agg is one requested aggregate: a function over a value column.
// Count ignores Col; Quantile computes the Q-quantile (0 ≤ Q ≤ 1) of
// Col, e.g. Q=0.95 for p95.
type Agg struct {
	Func Func    `json:"func"`
	Col  string  `json:"col,omitempty"`
	Q    float64 `json:"q,omitempty"`
}

// OutputColumn is the derived column name an aggregate materializes
// under in a rollup table: "count", "sum_bytes", "p95_latency".
func (a Agg) OutputColumn() string {
	switch a.Func {
	case Count:
		return "count"
	case Quantile:
		return fmt.Sprintf("p%02d_%s", int(a.Q*100+0.5), a.Col)
	default:
		return a.Func.String() + "_" + a.Col
	}
}

// Spec describes one aggregation: rows are grouped by
// (floorTo(ts, BucketWidth), the first GroupCols primary-key columns)
// and each group folds every listed aggregate.
type Spec struct {
	// BucketWidth is the time-bucket width in microseconds; 0 puts every
	// row in one bucket spanning all time.
	BucketWidth int64 `json:"bucket_width_us"`
	// GroupCols is how many leading primary-key columns form the group
	// key; 0 groups by time bucket alone. The timestamp key column never
	// participates (it is what the bucket replaces).
	GroupCols int `json:"group_cols"`
	// Aggs are the aggregates each group folds; at least one.
	Aggs []Agg `json:"aggs"`
}

// binding is a Spec resolved against one table's schema: per-aggregate
// value-column indices and numeric classes.
type binding struct {
	cols      []int // -1 for Count
	isFloat   []bool
	types     []ltval.Type
	quantiles int // how many aggregates are Quantile
}

// checkGroupCols validates spec's key-prefix grouping against sc.
func checkGroupCols(sc *schema.Schema, spec Spec) error {
	if spec.GroupCols < 0 || spec.GroupCols > sc.KeyLen()-1 {
		return fmt.Errorf("agg: %d group columns, schema has %d non-timestamp key columns",
			spec.GroupCols, sc.KeyLen()-1)
	}
	return nil
}

// bindAggs validates spec's bucket width and aggregates against sc.
// Sum/Avg/Quantile require a numeric (integer or double) column; Min/Max
// accept any column type.
func bindAggs(sc *schema.Schema, spec Spec) (*binding, error) {
	if spec.BucketWidth < 0 {
		return nil, fmt.Errorf("agg: negative bucket width %d", spec.BucketWidth)
	}
	if len(spec.Aggs) == 0 {
		return nil, fmt.Errorf("agg: no aggregates requested")
	}
	b := &binding{
		cols:    make([]int, len(spec.Aggs)),
		isFloat: make([]bool, len(spec.Aggs)),
		types:   make([]ltval.Type, len(spec.Aggs)),
	}
	for i, a := range spec.Aggs {
		if !a.Func.Valid() {
			return nil, fmt.Errorf("agg: invalid function %v", a.Func)
		}
		if a.Func == Count {
			b.cols[i] = -1
			continue
		}
		idx := sc.ColumnIndex(a.Col)
		if idx < 0 {
			return nil, fmt.Errorf("agg: %s over unknown column %q", a.Func, a.Col)
		}
		class := sc.ColumnClass(idx)
		if class == schema.ClassBytes && a.Func != Min && a.Func != Max {
			return nil, fmt.Errorf("agg: %s over non-numeric column %q", a.Func, a.Col)
		}
		if a.Func == Quantile {
			if a.Q < 0 || a.Q > 1 || math.IsNaN(a.Q) {
				return nil, fmt.Errorf("agg: quantile q=%v outside [0, 1]", a.Q)
			}
			b.quantiles++
		}
		b.cols[i] = idx
		b.isFloat[i] = class == schema.ClassFloat
		b.types[i] = sc.Columns[idx].Type
	}
	return b, nil
}

// ValidateSpec reports whether spec can run against sc.
func ValidateSpec(sc *schema.Schema, spec Spec) error {
	if err := checkGroupCols(sc, spec); err != nil {
		return err
	}
	_, err := bindAggs(sc, spec)
	return err
}

// State is the mergeable partial state of one aggregate within one
// group. Which fields are live depends on the function: Count uses N
// alone; Sum/Avg use N plus one of IntSum/FloatSum (selected by
// IsFloat, with integer sums saturating stickily at ±MaxInt64);
// Min/Max use HasMM+MM; Quantile uses N plus the sketch.
type State struct {
	N         int64
	IntSum    int64
	FloatSum  float64
	MM        ltval.Value
	Sketch    *Sketch
	IsFloat   bool
	Saturated bool
	HasMM     bool
}

// Group is one (bucket, key-prefix) group: the bucket start timestamp,
// the group-key values, and one partial State per Spec aggregate.
type Group struct {
	Bucket int64
	Key    []ltval.Value
	States []State
}

// CompareGroups orders groups by (bucket, key), the order Groups()
// emits and MergeLists and MergeGroups require.
func CompareGroups(a, b *Group) int {
	if c := cmp.Compare(a.Bucket, b.Bucket); c != 0 {
		return c
	}
	return schema.CompareKeySlices(a.Key, b.Key)
}

// Accumulator folds rows of one schema into per-group partial states.
// Not safe for concurrent use; the query cursor is single-goroutine.
type Accumulator struct {
	spec   Spec
	b      *binding
	sc     *schema.Schema
	keyIdx []int // schema column indices of the group-key columns
	// groups holds every group in creation order; unless unsorted is
	// set, that is also (bucket, key) order and Groups() skips its sort.
	groups   []Group
	unsorted bool
	index    map[string]int // group key bytes → groups index; built by find
	last     int            // groups index of the previous row's group
	slab     slab
	rows     int64
	keyBuf   []byte
}

// slab is the storage new groups take their keys, states, sketches and
// first sketch bins from. It is refilled a chunk at a time, each chunk
// holding as many groups as all before it (slabMinGroups at first), so a
// fold of n groups allocates O(log n) times, not several times per group,
// and reserves less than twice what it uses.
type slab struct {
	keys     []ltval.Value
	states   []State
	sketches []Sketch
	bins     []bin
}

const (
	// slabMinGroups is the group count of a slab's first chunk.
	slabMinGroups = 4
	// sketchSlabBins is how many positive bins a new group's quantile
	// sketch starts with room for, so a group of a few rows never grows
	// its run through sizes 1, 2 and 4.
	sketchSlabBins = 8
)

// take cuts the next n elements off *s, capped so that appending to them
// reallocates instead of overwriting the next taker's elements.
func take[T any](s *[]T, n int) []T {
	t := (*s)[:n:n]
	*s = (*s)[n:]
	return t
}

// NewAccumulator binds spec to sc, validating it. Rows group by
// (bucket, the first spec.GroupCols key columns).
func NewAccumulator(sc *schema.Schema, spec Spec) (*Accumulator, error) {
	if err := checkGroupCols(sc, spec); err != nil {
		return nil, err
	}
	return NewAccumulatorBy(sc, spec, sc.Key[:spec.GroupCols])
}

// NewAccumulatorBy binds spec to sc like NewAccumulator, but groups rows
// by (bucket, the values of the schema columns at cols): any columns, in
// any order, key or not, the timestamp included. spec.GroupCols is not
// consulted. Group keys follow cols, so Groups() sorts by those values.
func NewAccumulatorBy(sc *schema.Schema, spec Spec, cols []int) (*Accumulator, error) {
	b, err := bindAggs(sc, spec)
	if err != nil {
		return nil, err
	}
	for _, c := range cols {
		if c < 0 || c >= len(sc.Columns) {
			return nil, fmt.Errorf("agg: group column %d outside the schema's %d columns", c, len(sc.Columns))
		}
	}
	return &Accumulator{
		spec:   spec,
		b:      b,
		sc:     sc,
		keyIdx: slices.Clone(cols),
	}, nil
}

// floorTo rounds ts down to a multiple of width, correctly for
// negative timestamps (Go's % truncates toward zero). A floor below
// math.MinInt64 clamps to it rather than wrapping to the far future.
func floorTo(ts, width int64) int64 {
	if width <= 0 {
		return 0
	}
	r := ts % width
	if r < 0 {
		r += width
	}
	if ts < math.MinInt64+r {
		return math.MinInt64
	}
	return ts - r
}

// BucketStart returns the start of the bucket containing ts under spec.
func (s Spec) BucketStart(ts int64) int64 { return floorTo(ts, s.BucketWidth) }

// Add folds one row. The row must match the accumulator's schema; rows
// are not retained (key and min/max values are copied). A row that
// continues the previous row's group folds straight into it; any other
// is looked up by find.
func (a *Accumulator) Add(row schema.Row) {
	a.rows++
	bucket := floorTo(a.sc.Ts(row), a.spec.BucketWidth)
	if len(a.groups) == 0 || a.compareRow(&a.groups[a.last], bucket, row) != 0 {
		a.last = a.find(bucket, row)
	}
	g := &a.groups[a.last]
	for i, ag := range a.spec.Aggs {
		a.fold(&g.States[i], ag.Func, i, row)
	}
}

// compareRow orders the row's (bucket, group key) against g as
// CompareGroups orders groups, except that it tells an Int32 from an
// Int64 of the same number by type. Values of one type compare equal only
// when their bits are equal, so it returns 0 exactly when the row's key
// bytes are g's.
func (a *Accumulator) compareRow(g *Group, bucket int64, row schema.Row) int {
	if c := cmp.Compare(bucket, g.Bucket); c != 0 {
		return c
	}
	for i, ki := range a.keyIdx {
		v, w := row[ki], g.Key[i]
		if c := v.Compare(w); c != 0 {
			return c
		}
		if v.Type != w.Type {
			return cmp.Compare(v.Type, w.Type)
		}
	}
	return 0
}

// find returns the groups index of the row's group, creating the group
// if it is new. A row past the last group created starts a new one; until
// some other row comes, groups are created in (bucket, key) order and
// found without the index. The first such row builds the index, which
// finds groups from then on.
func (a *Accumulator) find(bucket int64, row schema.Row) int {
	n := len(a.groups)
	if a.index == nil {
		if n == 0 || a.compareRow(&a.groups[n-1], bucket, row) > 0 {
			return a.newGroup(bucket, row)
		}
		a.index = make(map[string]int, n)
		for i := range a.groups {
			g := &a.groups[i]
			buf := appendBucket(a.keyBuf[:0], g.Bucket)
			for _, v := range g.Key {
				buf = v.Append(buf)
			}
			a.keyBuf = buf
			a.index[string(buf)] = i
		}
	}
	buf := appendBucket(a.keyBuf[:0], bucket)
	for _, ki := range a.keyIdx {
		buf = row[ki].Append(buf)
	}
	a.keyBuf = buf
	if i, ok := a.index[string(buf)]; ok {
		return i
	}
	if !a.unsorted && a.compareRow(&a.groups[n-1], bucket, row) < 0 {
		a.unsorted = true
	}
	i := a.newGroup(bucket, row)
	a.index[string(buf)] = i
	return i
}

func appendBucket(buf []byte, bucket int64) []byte {
	u := uint64(bucket)
	return append(buf, byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
		byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
}

// newGroup appends the row's group, its storage taken from the slab, and
// returns its index.
func (a *Accumulator) newGroup(bucket int64, row schema.Row) int {
	s := &a.slab
	if len(s.states) == 0 {
		n := max(slabMinGroups, len(a.groups))
		s.keys = make([]ltval.Value, n*len(a.keyIdx))
		s.states = make([]State, n*len(a.spec.Aggs))
		s.sketches = make([]Sketch, n*a.b.quantiles)
		s.bins = make([]bin, n*a.b.quantiles*sketchSlabBins)
	}
	key := take(&s.keys, len(a.keyIdx))
	for i, ki := range a.keyIdx {
		key[i] = cloneValue(row[ki])
	}
	states := take(&s.states, len(a.spec.Aggs))
	for i := range states {
		states[i].IsFloat = a.b.isFloat[i]
		if a.spec.Aggs[i].Func == Quantile {
			sk := &take(&s.sketches, 1)[0]
			sk.pos = take(&s.bins, sketchSlabBins)[:0]
			states[i].Sketch = sk
		}
	}
	a.groups = append(a.groups, Group{Bucket: bucket, Key: key, States: states})
	return len(a.groups) - 1
}

// fold applies one row to one aggregate state. NaN float values are
// skipped by every numeric aggregate (they still count as rows for
// Count, which counts rows, not values).
func (a *Accumulator) fold(st *State, f Func, i int, row schema.Row) {
	if f == Count {
		st.N++
		return
	}
	v := row[a.b.cols[i]]
	switch f {
	case Sum, Avg:
		if st.IsFloat {
			if math.IsNaN(v.Float) {
				return
			}
			st.FloatSum += v.Float
			st.N++
			return
		}
		st.addInt(v.Int)
		st.N++
	case Min:
		if st.IsFloat && math.IsNaN(v.Float) {
			return
		}
		if !st.HasMM || v.Compare(st.MM) < 0 {
			st.MM = cloneValue(v)
			st.HasMM = true
		}
		st.N++
	case Max:
		if st.IsFloat && math.IsNaN(v.Float) {
			return
		}
		if !st.HasMM || v.Compare(st.MM) > 0 {
			st.MM = cloneValue(v)
			st.HasMM = true
		}
		st.N++
	case Quantile:
		f64 := v.Float
		if !st.IsFloat {
			f64 = float64(v.Int)
		}
		if math.IsNaN(f64) {
			return
		}
		st.Sketch.Add(f64)
		st.N++
	}
}

// addInt adds v to the integer sum, saturating at ±MaxInt64. Saturation
// is sticky: once clamped, later values (and merges) keep the clamp, so
// an overflowed sum reads as "at least/at most this" rather than a
// silently wrapped number.
func (st *State) addInt(v int64) {
	if st.Saturated {
		return
	}
	s := st.IntSum + v
	if (st.IntSum > 0 && v > 0 && s < 0) || (st.IntSum < 0 && v < 0 && s >= 0) {
		if v > 0 {
			st.IntSum = math.MaxInt64
		} else {
			st.IntSum = math.MinInt64
		}
		st.Saturated = true
		return
	}
	st.IntSum = s
}

// Rows returns how many rows have been folded.
func (a *Accumulator) Rows() int64 { return a.rows }

// NumGroups returns the current group count (the memory bound).
func (a *Accumulator) NumGroups() int { return len(a.groups) }

// Groups returns the accumulated partial groups sorted by (bucket,
// key): the groups themselves when they were created in that order, a
// sorted copy otherwise. The accumulator can keep folding afterwards;
// the returned groups share state with it, so treat them as a final
// snapshot.
func (a *Accumulator) Groups() []Group {
	if !a.unsorted {
		return slices.Clip(a.groups)
	}
	out := slices.Clone(a.groups)
	slices.SortFunc(out, func(x, y Group) int { return CompareGroups(&x, &y) })
	return out
}

// cloneValue deep-copies a value so retained group keys and min/max
// values never alias a query cursor's reusable row buffers.
func cloneValue(v ltval.Value) ltval.Value {
	if len(v.Bytes) > 0 {
		b := make([]byte, len(v.Bytes))
		copy(b, v.Bytes)
		v.Bytes = b
	}
	return v
}
