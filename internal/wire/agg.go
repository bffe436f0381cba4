package wire

import (
	"encoding/binary"

	"littletable/internal/agg"
)

// Aggregation messages (ROADMAP item 3).
//
// An AggQuery is scatter-shaped: like ScatterQuery it leads with a
// length-prefixed table-name prefix (PeekTable-compatible) and applies
// to every matching table. The response carries mergeable partial
// aggregate states, never raw rows: a shard folds its local tables'
// rows into per-group states, the router merges shard partials
// group-wise, and the client finalizes (avg = sum/count, quantiles
// from the sketch). Bytes on the wire scale with the number of groups,
// not the number of rows — the economics the dashboard workload needs.

// AggQuery asks for one streaming aggregation evaluated over every
// table whose name starts with Prefix, within [MinTs, MaxTs].
type AggQuery struct {
	Prefix string
	Spec   agg.Spec
	// MinTs and MaxTs bound row timestamps, inclusive. Leaving both
	// zero means all time, not the single microsecond 0.
	MinTs, MaxTs int64
	// MaxGroups caps the total groups a server accumulates (0 = server
	// default); hitting it sets Truncated in the result.
	MaxGroups uint32
	// MaxTables caps how many matching tables are scanned (0 = no cap),
	// taken in sorted name order so the cap is deterministic.
	MaxTables uint32
	// WantPartials asks for the per-table partial sections instead of
	// the merged groups: the reply's Tables is filled and its Groups left
	// empty. The router sets it on shard fan-out — it needs table
	// granularity to dedup a mid-migration table, and merges the
	// sections once itself — while a dashboard client leaves it unset
	// and gets the merged groups only.
	WantPartials bool
}

func (m *AggQuery) fields(c *codec) {
	c.str(&m.Prefix)
	c.spec(&m.Spec)
	c.i64(&m.MinTs)
	c.i64(&m.MaxTs)
	c.u32(&m.MaxGroups)
	c.u32(&m.MaxTables)
	c.boolean(&m.WantPartials)
}

// AggTablePartial is one table's partial aggregate. Per-table
// granularity is what lets the router dedup a mid-migration table that
// two shards both report — a combined aggregate could not subtract the
// duplicate's contribution.
type AggTablePartial struct {
	Table  string
	Groups []agg.Group
}

// AggResult answers an AggQuery with mergeable states (finalize with
// agg.Finalize): either the per-table partials in sorted table-name
// order (WantPartials) or their cross-table merge (otherwise), never
// both.
type AggResult struct {
	Spec agg.Spec
	// Tables holds one partial per scanned table, sorted by name; empty
	// unless the query set WantPartials.
	Tables []AggTablePartial
	// Groups is the cross-table merge of every scanned table's partial,
	// sorted by (bucket, key) — what a dashboard client reads directly;
	// empty when the query set WantPartials.
	Groups []agg.Group
	// RowsFolded counts source rows folded (across all tables), the
	// bytes-not-shipped denominator.
	RowsFolded int64
	// Truncated reports that MaxTables or MaxGroups cut coverage short.
	Truncated bool
}

func encodeGroups(b *Buf, spec agg.Spec, groups []agg.Group) {
	b.U32(uint32(len(groups)))
	for gi := range groups {
		g := &groups[gi]
		b.I64(g.Bucket)
		b.Values(g.Key)
		for i, a := range spec.Aggs {
			encodeState(b, a.Func, &g.States[i])
		}
	}
}

func encodeState(b *Buf, f agg.Func, st *agg.State) {
	b.I64(st.N)
	switch f {
	case agg.Count:
	case agg.Sum, agg.Avg:
		b.Bool(st.IsFloat)
		b.I64(st.IntSum)
		b.Bool(st.Saturated)
		b.F64(st.FloatSum)
	case agg.Min, agg.Max:
		b.Bool(st.HasMM)
		if st.HasMM {
			b.Value(st.MM)
		}
	case agg.Quantile:
		// b.Bytes's layout, written in place: reserve the length, append
		// the sketch, then patch the length in. A nil sketch is empty.
		at := len(b.B)
		b.U32(0)
		if st.Sketch != nil {
			b.B = st.Sketch.AppendBinary(b.B)
		}
		binary.LittleEndian.PutUint32(b.B[at:], uint32(len(b.B)-at-4))
	}
}

func decodeGroups(d *Dec, spec agg.Spec) []agg.Group {
	n := int(d.U32())
	// A group encodes to ≥ 12 bytes (bucket + key count) plus one state
	// per aggregate; bound the allocation by the remaining payload.
	if d.Err != nil || n > len(d.B) {
		d.fail("agg groups count")
		return nil
	}
	var out []agg.Group
	for i := 0; i < n && d.Err == nil; i++ {
		g := agg.Group{Bucket: d.I64(), Key: d.Values()}
		g.States = make([]agg.State, len(spec.Aggs))
		for j, a := range spec.Aggs {
			decodeState(d, a.Func, &g.States[j])
		}
		out = append(out, g)
	}
	return out
}

func decodeState(d *Dec, f agg.Func, st *agg.State) {
	st.N = d.I64()
	if d.Err == nil && st.N < 0 {
		d.fail("agg state count")
		return
	}
	switch f {
	case agg.Count:
	case agg.Sum, agg.Avg:
		st.IsFloat = d.Bool()
		st.IntSum = d.I64()
		st.Saturated = d.Bool()
		st.FloatSum = d.F64()
	case agg.Min, agg.Max:
		st.HasMM = d.Bool()
		if st.HasMM {
			st.MM = d.Value()
		}
	case agg.Quantile:
		sk := d.Bytes()
		if d.Err != nil || len(sk) == 0 {
			return // a nil sketch encodes as empty bytes
		}
		s, err := agg.UnmarshalSketch(sk)
		if err != nil {
			d.Err = err
			return
		}
		st.Sketch = s
	}
}

// Encode serializes the message payload.
func (m *AggResult) Encode() []byte {
	var c codec
	c.spec(&m.Spec)
	b := &c.b
	b.U32(uint32(len(m.Tables)))
	for i := range m.Tables {
		b.String(m.Tables[i].Table)
		encodeGroups(b, m.Spec, m.Tables[i].Groups)
	}
	encodeGroups(b, m.Spec, m.Groups)
	b.I64(m.RowsFolded)
	b.Bool(m.Truncated)
	return b.B
}

// DecodeAggResult parses an AggResult payload.
func DecodeAggResult(p []byte) (*AggResult, error) {
	c := codec{decoding: true, d: Dec{B: p}}
	m := &AggResult{}
	c.spec(&m.Spec)
	d := &c.d
	n := int(d.U32())
	if d.Err == nil && n > len(d.B) {
		d.fail("agg tables count")
	}
	for i := 0; i < n && d.Err == nil; i++ {
		t := AggTablePartial{Table: d.String()}
		t.Groups = decodeGroups(d, m.Spec)
		m.Tables = append(m.Tables, t)
	}
	m.Groups = decodeGroups(d, m.Spec)
	m.RowsFolded = d.I64()
	m.Truncated = d.Bool()
	return m, d.Done()
}
