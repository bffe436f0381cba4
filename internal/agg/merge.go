package agg

import (
	"math"

	"littletable/internal/ltval"
)

// MergeGroups merges two group lists, each sorted by (bucket, key) as
// Groups() emits them, into one sorted list with per-group states
// combined. Inputs are partials over disjoint row sets (two tables on
// one shard, or two shards' scans), so merging a state is pure
// combination — no row is ever seen twice. Neither input is mutated:
// groups present in both lists get freshly copied states (sketches
// included), so a caller may keep the inputs — e.g. the server's
// per-table sections — alongside the merged result.
func MergeGroups(spec Spec, a, b []Group) []Group {
	out := make([]Group, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch c := CompareGroups(&a[i], &b[j]); {
		case c < 0:
			out = append(out, a[i])
			i++
		case c > 0:
			out = append(out, b[j])
			j++
		default:
			g := Group{Bucket: a[i].Bucket, Key: a[i].Key,
				States: make([]State, len(a[i].States))}
			copy(g.States, a[i].States)
			for k := range g.States {
				mergeState(spec.Aggs[k].Func, &g.States[k], &b[j].States[k])
			}
			out = append(out, g)
			i, j = i+1, j+1
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// mergeState folds src into dst for one aggregate function.
func mergeState(f Func, dst *State, src *State) {
	dst.N += src.N
	switch f {
	case Sum, Avg:
		if dst.IsFloat {
			dst.FloatSum += src.FloatSum
			return
		}
		switch {
		case dst.Saturated:
			// Sticky: keep dst's clamp.
		case src.Saturated:
			dst.IntSum = src.IntSum
			dst.Saturated = true
		default:
			dst.addInt(src.IntSum)
		}
	case Min:
		if src.HasMM && (!dst.HasMM || src.MM.Compare(dst.MM) < 0) {
			dst.MM = src.MM
			dst.HasMM = true
		}
	case Max:
		if src.HasMM && (!dst.HasMM || src.MM.Compare(dst.MM) > 0) {
			dst.MM = src.MM
			dst.HasMM = true
		}
	case Quantile:
		// A fresh sketch, not an in-place fold: dst.States was shallow-
		// copied by MergeGroups, so its Sketch pointer still belongs to
		// the input group and must not be mutated.
		dst.Sketch = mergedSketch(dst.Sketch, src.Sketch)
	}
}

// Output is one finalized group: the bucket start timestamp, the group
// key, and one concrete value per requested aggregate.
type Output struct {
	Bucket int64
	Key    []ltval.Value
	Values []ltval.Value
}

// Finalize turns partial groups into final values: count → Int64,
// integer sum → Int64 (clamped if saturated), float sum → Double,
// min/max → the witnessed value (Invalid-typed zero Value if every
// input was NaN), avg and quantile → Double (NaN over zero values).
func Finalize(spec Spec, groups []Group) []Output {
	out := make([]Output, len(groups))
	for gi := range groups {
		g := &groups[gi]
		vals := make([]ltval.Value, len(spec.Aggs))
		for i, a := range spec.Aggs {
			vals[i] = finalizeState(a, &g.States[i])
		}
		out[gi] = Output{Bucket: g.Bucket, Key: g.Key, Values: vals}
	}
	return out
}

func finalizeState(a Agg, st *State) ltval.Value {
	switch a.Func {
	case Count:
		return ltval.NewInt64(st.N)
	case Sum:
		if st.IsFloat {
			return ltval.NewDouble(st.FloatSum)
		}
		return ltval.NewInt64(st.IntSum)
	case Min, Max:
		if !st.HasMM {
			return ltval.Value{}
		}
		return st.MM
	case Avg:
		if st.N == 0 {
			return ltval.NewDouble(math.NaN())
		}
		if st.IsFloat {
			return ltval.NewDouble(st.FloatSum / float64(st.N))
		}
		return ltval.NewDouble(float64(st.IntSum) / float64(st.N))
	case Quantile:
		if st.Sketch == nil {
			return ltval.NewDouble(math.NaN())
		}
		return ltval.NewDouble(st.Sketch.Quantile(a.Q))
	default:
		return ltval.Value{}
	}
}
