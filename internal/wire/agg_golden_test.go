package wire

import (
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"testing"

	"littletable/internal/agg"
	"littletable/internal/ltval"
)

// testdata/agg_result.golden pins the payload bytes of an AggResult whose
// quantile sketches hold positive, negative and zero values, extreme
// magnitudes, a repeated bucket, an empty sketch and a nil one, and the
// quantiles they finalize to, so a change to how a sketch is stored cannot
// change what goes on the wire or what a client reads. -regen-golden
// rewrites it.

func goldenAggResult() *AggResult {
	spec := agg.Spec{BucketWidth: 1000, GroupCols: 1, Aggs: []agg.Agg{
		{Func: agg.Count},
		{Func: agg.Quantile, Col: "v", Q: 0.5},
		{Func: agg.Quantile, Col: "v", Q: 0.99},
	}}
	sketch := func(vs ...float64) *agg.Sketch {
		s := agg.NewSketch()
		for _, v := range vs {
			s.Add(v)
		}
		return s
	}
	mixed := sketch(3, 3, 3.01, -3, 0, 0, 1e6, -1e-6, 42.5, -42.5, 0.001, -7e12, 17)
	extreme := sketch(math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.NaN())
	group := func(bucket, key int64, a, b *agg.Sketch) agg.Group {
		return agg.Group{Bucket: bucket, Key: []ltval.Value{ltval.NewInt64(key)},
			States: []agg.State{{N: key}, {N: key, Sketch: a}, {N: key, Sketch: b}}}
	}
	t1 := []agg.Group{
		group(0, 1, mixed, nil),
		group(0, 2, sketch(0, 0, 0), sketch()),
		group(1000, 3, extreme, sketch(-1, -2, -4, -8)),
	}
	t2 := []agg.Group{group(0, 1, sketch(5, 6, 7), mixed)}
	return &AggResult{
		Spec:       spec,
		Tables:     []AggTablePartial{{Table: "t1", Groups: t1}, {Table: "t2", Groups: t2}},
		Groups:     agg.MergeGroups(spec, t1, t2),
		RowsFolded: 40,
	}
}

// aggGoldenText is the payload in hex, then every finalized value of the
// merged groups, one group a line.
func aggGoldenText(m *AggResult) string {
	var b strings.Builder
	b.WriteString(hex.EncodeToString(m.Encode()) + "\n")
	for _, o := range agg.Finalize(m.Spec, m.Groups) {
		fmt.Fprintf(&b, "%d/%v", o.Bucket, o.Key[0])
		for _, v := range o.Values {
			fmt.Fprintf(&b, " %v", v)
		}
		b.WriteString("\n")
	}
	return b.String()
}

func TestAggResultPayloadGolden(t *testing.T) {
	got := aggGoldenText(goldenAggResult())
	checkGolden(t, "agg_result.golden", got)
	// The pinned bytes decode and re-encode to themselves.
	m, err := DecodeAggResult(goldenAggResult().Encode())
	if err != nil {
		t.Fatal(err)
	}
	if re := aggGoldenText(m); re != got {
		t.Fatalf("decode and re-encode differs:\n got %s\nwant %s", re, got)
	}
}
