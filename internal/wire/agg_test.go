package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"littletable/internal/agg"
	"littletable/internal/ltval"
)

func testAggSpec() agg.Spec {
	return agg.Spec{
		BucketWidth: 60_000_000,
		GroupCols:   2,
		Aggs: []agg.Agg{
			{Func: agg.Count},
			{Func: agg.Sum, Col: "bytes"},
			{Func: agg.Sum, Col: "rate"},
			{Func: agg.Min, Col: "rate"},
			{Func: agg.Max, Col: "bytes"},
			{Func: agg.Avg, Col: "rate"},
			{Func: agg.Quantile, Col: "rate", Q: 0.95},
		},
	}
}

// testAggResult builds a result exercising every state shape the encoder
// distinguishes: saturated and plain int sums, float sums (including a
// NaN from an all-NaN column), present and absent min/max, populated and
// nil sketches, and an empty group list for one table.
func testAggResult() *AggResult {
	spec := testAggSpec()
	sk := agg.NewSketch()
	for i := 1; i <= 100; i++ {
		sk.Add(float64(i) / 7)
	}
	mkGroup := func(bucket, n int64, saturated, hasMM bool, sketch *agg.Sketch) agg.Group {
		g := agg.Group{
			Bucket: bucket,
			Key:    []ltval.Value{ltval.NewInt64(n), ltval.NewInt64(n * 3)},
			States: make([]agg.State, len(spec.Aggs)),
		}
		g.States[0] = agg.State{N: n}
		g.States[1] = agg.State{N: n, IntSum: n * 100, Saturated: saturated}
		if saturated {
			g.States[1].IntSum = math.MaxInt64
		}
		g.States[2] = agg.State{N: n, IsFloat: true, FloatSum: float64(n) * 1.5}
		g.States[3] = agg.State{N: n, HasMM: hasMM}
		g.States[4] = agg.State{N: n, HasMM: hasMM}
		if hasMM {
			g.States[3].MM = ltval.NewDouble(-2.25)
			g.States[4].MM = ltval.NewInt64(1 << 40)
		}
		g.States[5] = agg.State{N: n, IsFloat: true, FloatSum: math.NaN()}
		g.States[6] = agg.State{N: n, Sketch: sketch}
		return g
	}
	groups := []agg.Group{
		mkGroup(0, 4, false, true, sk),
		mkGroup(60_000_000, 7, true, false, nil),
	}
	return &AggResult{
		Spec: spec,
		Tables: []AggTablePartial{
			{Table: "usage_a", Groups: groups},
			{Table: "usage_b", Groups: nil},
		},
		Groups:     groups,
		RowsFolded: 12345,
		Truncated:  true,
	}
}

func TestAggQueryRoundTrip(t *testing.T) {
	m := &AggQuery{
		Prefix:       "usage",
		Spec:         testAggSpec(),
		MinTs:        -5,
		MaxTs:        math.MaxInt64,
		MaxGroups:    4096,
		MaxTables:    3,
		WantPartials: true,
	}
	p := encode(m)
	// AggQuery leads with its prefix so the router can route without a
	// full decode, exactly like the scatter messages.
	if name, err := PeekTable(p); err != nil || name != "usage" {
		t.Fatalf("PeekTable = %q, %v; want %q", name, err, "usage")
	}
	got, err := Decode[AggQuery](p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Prefix != m.Prefix || got.MinTs != m.MinTs || got.MaxTs != m.MaxTs ||
		got.MaxGroups != m.MaxGroups || got.MaxTables != m.MaxTables ||
		got.WantPartials != m.WantPartials {
		t.Fatalf("scalar fields drifted: %+v", got)
	}
	if got.Spec.BucketWidth != m.Spec.BucketWidth || got.Spec.GroupCols != m.Spec.GroupCols ||
		len(got.Spec.Aggs) != len(m.Spec.Aggs) {
		t.Fatalf("spec drifted: %+v", got.Spec)
	}
	for i, a := range got.Spec.Aggs {
		w := m.Spec.Aggs[i]
		if a.Func != w.Func || a.Col != w.Col || a.Q != w.Q {
			t.Fatalf("agg %d drifted: got %+v want %+v", i, a, w)
		}
	}
	if !bytes.Equal(encode(got), p) {
		t.Fatal("re-encode not byte-identical")
	}
}

func TestAggResultRoundTrip(t *testing.T) {
	m := testAggResult()
	p := m.Encode()
	got, err := DecodeAggResult(p)
	if err != nil {
		t.Fatal(err)
	}
	if got.RowsFolded != m.RowsFolded || got.Truncated != m.Truncated {
		t.Fatalf("scalars drifted: %+v", got)
	}
	if len(got.Tables) != 2 || got.Tables[0].Table != "usage_a" || got.Tables[1].Table != "usage_b" {
		t.Fatalf("tables drifted: %+v", got.Tables)
	}
	if len(got.Tables[1].Groups) != 0 {
		t.Fatalf("empty partial grew groups: %+v", got.Tables[1].Groups)
	}
	if len(got.Groups) != 2 {
		t.Fatalf("got %d merged groups, want 2", len(got.Groups))
	}
	g := got.Groups[0]
	if g.Bucket != 0 || len(g.Key) != 2 || g.Key[0].Int != 4 {
		t.Fatalf("group 0 drifted: %+v", g)
	}
	if st := g.States[1]; st.N != 4 || st.IntSum != 400 || st.Saturated {
		t.Fatalf("int sum state drifted: %+v", st)
	}
	if st := g.States[5]; !st.IsFloat || !math.IsNaN(st.FloatSum) {
		t.Fatalf("NaN float sum not preserved: %+v", st)
	}
	if st := g.States[3]; !st.HasMM || st.MM.Float != -2.25 {
		t.Fatalf("min state drifted: %+v", st)
	}
	if g.States[6].Sketch == nil {
		t.Fatal("populated sketch decoded to nil")
	}
	want := m.Groups[0].States[6].Sketch.Quantile(0.95)
	if q := g.States[6].Sketch.Quantile(0.95); q != want {
		t.Fatalf("sketch quantile drifted: got %v want %v", q, want)
	}
	g1 := got.Groups[1]
	if st := g1.States[1]; st.IntSum != math.MaxInt64 || !st.Saturated {
		t.Fatalf("saturated sum not preserved: %+v", st)
	}
	if g1.States[3].HasMM || g1.States[4].HasMM {
		t.Fatalf("absent min/max decoded as present: %+v", g1.States[3])
	}
	if g1.States[6].Sketch != nil {
		t.Fatal("nil sketch decoded as populated")
	}
	if !bytes.Equal(got.Encode(), p) {
		t.Fatal("re-encode not byte-identical")
	}
}

// TestAggDecodeRejects drives the hostile-input discipline: truncation,
// counts larger than the payload could hold, invalid enum values,
// negative state counts, corrupt sketches, and trailing garbage must all
// surface as errors, never as panics or silent acceptance.
func TestAggDecodeRejects(t *testing.T) {
	q := encode(&AggQuery{Prefix: "u", Spec: testAggSpec(), MaxTs: 9})
	r := testAggResult().Encode()

	for i := 0; i < len(q); i++ {
		if _, err := Decode[AggQuery](q[:i]); err == nil {
			t.Fatalf("truncated AggQuery at %d accepted", i)
		}
	}
	for i := 0; i < len(r); i++ {
		if _, err := DecodeAggResult(r[:i]); err == nil {
			t.Fatalf("truncated AggResult at %d accepted", i)
		}
	}
	if _, err := Decode[AggQuery](append(append([]byte{}, q...), 0)); err == nil {
		t.Fatal("trailing garbage on AggQuery accepted")
	}
	if _, err := DecodeAggResult(append(append([]byte{}, r...), 0)); err == nil {
		t.Fatal("trailing garbage on AggResult accepted")
	}

	// Hostile aggregate count: prefix + bucket width + group cols, then a
	// count far beyond the remaining payload.
	var b Buf
	b.String("u")
	b.I64(60)
	b.U32(1)
	b.U32(1 << 30)
	if _, err := Decode[AggQuery](b.B); err == nil {
		t.Fatal("hostile agg count accepted")
	}

	// Invalid aggregate function enum.
	bad := append([]byte{}, q...)
	// Func is the first byte of the first agg entry: after prefix
	// (4+1 bytes), bucket width (8), group cols (4), agg count (4).
	bad[4+1+8+4+4] = 0xee
	if _, err := Decode[AggQuery](bad); err == nil {
		t.Fatal("invalid agg func accepted")
	}

	// Hostile table count on a result: valid spec, then a huge count.
	tb := specBuf(agg.Spec{BucketWidth: 1})
	tb.U32(1 << 30)
	if _, err := DecodeAggResult(tb.B); err == nil {
		t.Fatal("hostile table count accepted")
	}

	// Hostile group count inside a table partial.
	gb := specBuf(agg.Spec{BucketWidth: 1})
	gb.U32(1)
	gb.String("t")
	gb.U32(1 << 30)
	if _, err := DecodeAggResult(gb.B); err == nil {
		t.Fatal("hostile group count accepted")
	}

	// Negative state N.
	nb := specBuf(agg.Spec{BucketWidth: 1, Aggs: []agg.Agg{{Func: agg.Count}}})
	nb.U32(0) // no tables
	nb.U32(1) // one merged group
	nb.I64(0) // bucket
	nb.Values(nil)
	nb.I64(-1) // state N
	nb.I64(0)  // rows folded
	nb.Bool(false)
	if _, err := DecodeAggResult(nb.B); err == nil {
		t.Fatal("negative state count accepted")
	}

	// Corrupt sketch bytes inside a quantile state.
	if _, err := DecodeAggResult(quantileResult(bytes.Repeat([]byte{0xff}, 10))); err == nil {
		t.Fatal("corrupt sketch accepted")
	}
	// A repeated bucket index whose counts wrap int64: it once decoded to
	// a sketch of Count −2 that its own re-encode rejected.
	if _, err := DecodeAggResult(quantileResult(wrappingSketch())); err == nil {
		t.Fatal("sketch with a repeated bucket accepted")
	}
}

// specBuf is a payload that starts with spec.
func specBuf(spec agg.Spec) Buf {
	var c codec
	c.spec(&spec)
	return c.b
}

// quantileResult is an AggResult payload of one group whose one quantile
// state carries the given sketch image.
func quantileResult(sketch []byte) []byte {
	b := specBuf(agg.Spec{BucketWidth: 1, Aggs: []agg.Agg{{Func: agg.Quantile, Col: "c", Q: 0.5}}})
	b.U32(0) // no tables
	b.U32(1) // one merged group
	b.I64(0) // bucket
	b.Values(nil)
	b.I64(1) // state N
	b.Bytes(sketch)
	b.I64(0) // rows folded
	b.Bool(false)
	return b.B
}

// wrappingSketch is a sketch image with no zeros, positive bucket 1 listed
// twice with count MaxInt64 each, and no negatives.
func wrappingSketch() []byte {
	b := []byte{0, 2}
	for i := 0; i < 2; i++ {
		b = binary.AppendVarint(b, 1)
		b = binary.AppendUvarint(b, math.MaxInt64)
	}
	return append(b, 0)
}

// FuzzAggResult hammers the AggResult decoder with arbitrary bytes: it
// must never panic, and anything that decodes must re-encode and
// re-decode stably (the router re-encodes merged results, so an
// unstable decode would corrupt scatter responses). FuzzDecoders checks
// AggQuery with the other cold messages.
func FuzzAggResult(f *testing.F) {
	f.Add(testAggResult().Encode())
	f.Add(encode(&AggQuery{Prefix: "usage", Spec: testAggSpec(), MaxTs: 99}))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 5, 'u', 's', 'a', 'g', 'e'})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Add(quantileResult(wrappingSketch()))
	f.Fuzz(func(t *testing.T, data []byte) {
		if m, err := DecodeAggResult(data); err == nil {
			p := m.Encode()
			again, err := DecodeAggResult(p)
			if err != nil {
				t.Fatalf("re-decode of valid AggResult failed: %v", err)
			}
			if !bytes.Equal(again.Encode(), p) {
				t.Fatal("AggResult re-encode unstable")
			}
		}
	})
}
