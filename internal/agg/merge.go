package agg

import (
	"math"
	"slices"

	"littletable/internal/ltval"
)

// MergeLists folds k group lists, each sorted by (bucket, key) as
// Groups() emits them, into one sorted list in a single k-way pass. The
// lists are partials over disjoint row sets (the tables of one shard, or
// the deduplicated per-table sections of a scatter), so merging a state
// is pure combination — no row is ever seen twice.
//
// MergeLists consumes its inputs: equal (bucket, key) groups fold into
// the states of the first list holding that group, in list order, and
// the result shares those states, sketch bins folded in place. The
// association is the left fold's, ((l0 + l1) + l2) + …, so float sums
// come out bit-identical to pairwise MergeGroups calls.
func MergeLists(spec Spec, lists [][]Group) []Group { return mergeLists(spec, lists, true) }

// MergeGroups merges two sorted group lists into a new one, like
// MergeLists, but mutates neither input: a group present in both gets
// freshly copied states and a fresh merged sketch, so the caller may keep
// using a and b afterwards.
func MergeGroups(spec Spec, a, b []Group) []Group {
	return mergeLists(spec, [][]Group{a, b}, false)
}

// mergeLists walks the lists' heads in step. Each round takes the least
// head group, folds every other list's equal head into it, and advances
// those lists. own says whether the inputs' states may be folded into;
// if not, a group that takes a fold gets its own States slice first and
// each fold a fresh sketch.
func mergeLists(spec Spec, lists [][]Group, own bool) []Group {
	longest := 0
	for _, l := range lists {
		longest = max(longest, len(l))
	}
	out := make([]Group, 0, longest)
	heads := make([]int, len(lists))
	same := make([]int, 0, len(lists)) // lists whose head is the least, in list order
	for {
		var least *Group
		same = same[:0]
		for i, l := range lists {
			if heads[i] == len(l) {
				continue
			}
			g := &l[heads[i]]
			c := -1
			if least != nil {
				c = CompareGroups(g, least)
			}
			if c < 0 {
				least, same = g, append(same[:0], i)
			} else if c == 0 {
				same = append(same, i)
			}
		}
		if least == nil {
			return out
		}
		g := *least
		if len(same) > 1 && !own {
			g.States = slices.Clone(g.States)
		}
		heads[same[0]]++
		for _, i := range same[1:] {
			src := &lists[i][heads[i]]
			heads[i]++
			for k := range g.States {
				mergeState(spec.Aggs[k].Func, &g.States[k], &src.States[k], own)
			}
		}
		out = append(out, g)
	}
}

// mergeState folds src into dst for one aggregate function; src is not
// modified. A quantile sketch dst owns takes the fold in place; any other
// is replaced by a fresh merged sketch.
func mergeState(f Func, dst *State, src *State, owned bool) {
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
		if owned && dst.Sketch != nil {
			dst.Sketch.Merge(src.Sketch)
		} else {
			dst.Sketch = mergedSketch(dst.Sketch, src.Sketch)
		}
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
