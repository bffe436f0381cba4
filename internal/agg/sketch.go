package agg

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// sketchAlpha is the sketch's relative accuracy: a reported quantile is
// within ±1% of the true value. With γ = (1+α)/(1−α), values are binned
// by ⌈log_γ v⌉, so a bucket index is ~14 bits for any physical quantity
// and a sketch stays small even for heavy-tailed data.
const sketchAlpha = 0.01

var (
	sketchGamma    = (1 + sketchAlpha) / (1 - sketchAlpha)
	sketchLogGamma = math.Log(sketchGamma)
)

// Sketch is a DDSketch-style quantile summary over logarithmic buckets:
// per-bucket counts for positive and negative values plus an exact zero
// count. Merging two sketches is bucket-count addition, which is
// associative and commutative — the property the router's shard-merge
// relies on (merge order cannot change a reported quantile).
//
// Each sign is a sparse run of bins, sorted by index, unique, every count
// positive: the form the wire carries, so merge is one linear pass and
// encode and decode walk the run in order. A sign holds at most 72,710
// bins: finite magnitudes index from −37,220 (the smallest
// subnormal) to 35,488 (MaxFloat64), and ±Inf clamps to one more bucket
// at MaxInt32.
type Sketch struct {
	pos, neg []bin // neg is indexed by the magnitude's bucket
	zero     int64
}

// bin is one bucket of a Sketch: its index and how many values it holds.
type bin struct {
	idx int32
	n   int64
}

// NewSketch returns an empty sketch.
func NewSketch() *Sketch { return &Sketch{} }

// sketchIndex bins a positive value; ±Inf and extreme magnitudes clamp
// to the int32 range instead of hitting Go's undefined float→int
// conversion.
func sketchIndex(v float64) int32 {
	lv := math.Log(v)
	if v < 0x1p-1022 {
		// math.Log is wrong for subnormals on amd64 (math.Log(1e-320) is
		// −709.09, not −736.83), so take it of the normalized fraction.
		frac, exp := math.Frexp(v)
		lv = math.Log(frac) + float64(exp)*math.Ln2
	}
	l := math.Ceil(lv / sketchLogGamma)
	if l >= math.MaxInt32 {
		return math.MaxInt32
	}
	if l <= math.MinInt32 {
		return math.MinInt32
	}
	return int32(l)
}

// sketchValue is the representative value of bucket i, the midpoint of
// the bucket's (γ^(i−1), γ^i] range in relative terms.
func sketchValue(i int32) float64 {
	return 2 * math.Pow(sketchGamma, float64(i)) / (sketchGamma + 1)
}

// Add folds one value. NaN is ignored.
func (s *Sketch) Add(v float64) {
	switch {
	case math.IsNaN(v):
	case v == 0:
		s.zero++
	case v > 0:
		s.pos = addBin(s.pos, sketchIndex(v))
	default:
		s.neg = addBin(s.neg, sketchIndex(-v))
	}
}

// addBin counts one value into bucket i, inserting the bin if it is new.
func addBin(bins []bin, i int32) []bin {
	lo, hi := 0, len(bins)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if bins[m].idx < i {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(bins) && bins[lo].idx == i {
		bins[lo].n++
		return bins
	}
	bins = append(bins, bin{})
	copy(bins[lo+1:], bins[lo:])
	bins[lo] = bin{idx: i, n: 1}
	return bins
}

// Count returns the number of values folded.
func (s *Sketch) Count() int64 {
	n := s.zero
	for _, b := range s.pos {
		n += b.n
	}
	for _, b := range s.neg {
		n += b.n
	}
	return n
}

// Merge folds o into s in place; o may be nil and is not modified. Bins
// o shares with s only add counts, so s's runs grow only by o's new
// indices.
func (s *Sketch) Merge(o *Sketch) {
	if o == nil {
		return
	}
	s.pos = foldBins(s.pos, o.pos, true)
	s.neg = foldBins(s.neg, o.neg, true)
	s.zero += o.zero
}

// mergedSketch returns a fresh sketch holding a and b (either may be nil);
// neither input is modified.
func mergedSketch(a, b *Sketch) *Sketch {
	var empty Sketch
	if a == nil {
		a = &empty
	}
	if b == nil {
		b = &empty
	}
	return &Sketch{pos: foldBins(a.pos, b.pos, false), neg: foldBins(a.neg, b.neg, false), zero: a.zero + b.zero}
}

// foldBins returns the bucket-wise sum of the sorted runs dst and src;
// src is never modified. In place, the sum reuses dst's array when it has
// room for src's bins; otherwise it is built in one new slice (nil when
// both runs are empty). The runs merge from the back into room for every
// bin of both, so in place no bin is overwritten before it is read; then
// the merged tail closes the gap that shared indices left.
func foldBins(dst, src []bin, inPlace bool) []bin {
	n, m := len(dst), len(src)
	var out []bin
	switch {
	case inPlace:
		out = slices.Grow(dst, m)[:n+m]
	case n+m > 0:
		out = make([]bin, n+m)
	}
	i, j, k := n-1, m-1, n+m-1
	for ; j >= 0; k-- {
		switch {
		case i >= 0 && dst[i].idx > src[j].idx:
			out[k] = dst[i]
			i--
		case i >= 0 && dst[i].idx == src[j].idx:
			out[k] = bin{idx: dst[i].idx, n: dst[i].n + src[j].n}
			i, j = i-1, j-1
		default:
			out[k] = src[j]
			j--
		}
	}
	copy(out, dst[:i+1]) // in place, already there
	copy(out[i+1:], out[k+1:])
	return out[:n+m-(k-i)]
}

// Quantile returns the q-quantile estimate (q clamped to [0, 1]), or
// NaN for an empty sketch. Buckets are walked in value order: most
// negative first (descending magnitude index), then zero, then
// positives ascending.
func (s *Sketch) Quantile(q float64) float64 {
	n := s.Count()
	if n == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(n-1)) // 0-based rank
	acc := int64(0)
	for i := len(s.neg) - 1; i >= 0; i-- {
		acc += s.neg[i].n
		if acc > rank {
			return -sketchValue(s.neg[i].idx)
		}
	}
	acc += s.zero
	if acc > rank {
		return 0
	}
	for _, b := range s.pos {
		acc += b.n
		if acc > rank {
			return sketchValue(b.idx)
		}
	}
	// Unreachable: rank < n and the walk covers all n values.
	return math.NaN()
}

// AppendBinary appends a deterministic binary encoding (ascending bucket
// order, varint-packed) and returns the extended slice.
func (s *Sketch) AppendBinary(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(s.zero))
	for _, bins := range [2][]bin{s.pos, s.neg} {
		dst = binary.AppendUvarint(dst, uint64(len(bins)))
		for _, b := range bins {
			dst = binary.AppendVarint(dst, int64(b.idx))
			dst = binary.AppendUvarint(dst, uint64(b.n))
		}
	}
	return dst
}

// UnmarshalSketch decodes an AppendBinary image. The whole buffer must
// be consumed, and it must be the one image AppendBinary emits: bucket
// indices strictly ascending within each sign, every count positive, and
// a total count that fits an int64. So a hostile image cannot produce
// negative counts, out-of-range buckets or a sketch that fails to
// re-encode.
func UnmarshalSketch(b []byte) (*Sketch, error) {
	s := &Sketch{}
	zero, n := binary.Uvarint(b)
	if n <= 0 || zero > math.MaxInt64 {
		return nil, fmt.Errorf("agg: bad sketch zero count")
	}
	s.zero = int64(zero)
	total := s.zero
	b = b[n:]
	for _, bins := range [2]*[]bin{&s.pos, &s.neg} {
		cnt, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, fmt.Errorf("agg: bad sketch bucket count")
		}
		b = b[n:]
		// Each entry is ≥ 2 bytes; a count the buffer cannot hold is
		// rejected before any allocation proportional to it.
		if cnt > uint64(len(b)) {
			return nil, fmt.Errorf("agg: sketch bucket count %d exceeds payload", cnt)
		}
		if cnt > 0 {
			*bins = make([]bin, 0, cnt)
		}
		for j := uint64(0); j < cnt; j++ {
			idx, n := binary.Varint(b)
			if n <= 0 || idx < math.MinInt32 || idx > math.MaxInt32 {
				return nil, fmt.Errorf("agg: bad sketch bucket index")
			}
			if j > 0 && idx <= int64((*bins)[j-1].idx) {
				return nil, fmt.Errorf("agg: sketch bucket index %d not ascending", idx)
			}
			b = b[n:]
			c, n := binary.Uvarint(b)
			if n <= 0 || c == 0 || c > uint64(math.MaxInt64-total) {
				return nil, fmt.Errorf("agg: bad sketch bucket value")
			}
			b = b[n:]
			total += int64(c)
			*bins = append(*bins, bin{idx: int32(idx), n: int64(c)})
		}
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("agg: %d trailing bytes after sketch", len(b))
	}
	return s, nil
}
