package wire

import (
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"littletable/internal/core"
	"littletable/internal/ltval"
)

// testdata/box_payloads.golden pins the payload bytes of the three
// messages that carry a query box (Query, Delete, ScatterQuery), so a
// change to how the box is declared or encoded cannot change what goes on
// the wire. -regen-golden rewrites it.

// boxCase is one box with the message fields around it.
type boxCase struct {
	name      string
	box       core.Query
	maxTables uint32
}

func boxCases() []boxCase {
	i64 := func(vs ...int64) []ltval.Value {
		out := []ltval.Value{}
		for _, v := range vs {
			out = append(out, ltval.NewInt64(v))
		}
		return out
	}
	prefix := func(v int64, s string, ts int64) []ltval.Value {
		return []ltval.Value{ltval.NewInt64(v), ltval.NewString(s), ltval.NewTimestamp(ts)}
	}
	all := core.NewQuery()
	with := func(f func(q *core.Query)) core.Query {
		q := all
		f(&q)
		return q
	}
	return []boxCase{
		{name: "unbounded", box: all},
		{name: "zero", box: core.Query{}},
		{name: "empty-bounds", box: with(func(q *core.Query) {
			q.Lower, q.Upper = i64(), i64()
			q.LowerInc, q.UpperInc = false, false
		})},
		{name: "prefix-inclusive", box: with(func(q *core.Query) {
			q.Lower, q.Upper = i64(7), i64(7)
			q.MinTs, q.MaxTs = -100, 100
		})},
		{name: "full-key-exclusive", box: with(func(q *core.Query) {
			q.Lower, q.Upper = prefix(1, "ap", 10), prefix(3, "sw", 1<<40)
			q.LowerInc, q.UpperInc = false, false
		})},
		{name: "lower-only-desc", box: with(func(q *core.Query) {
			q.Lower = i64(-5)
			q.Descending = true
		})},
		{name: "upper-only-limit", box: with(func(q *core.Query) {
			q.Upper = i64(9, 2)
			q.UpperInc = false
			q.Limit = 64
		})},
		{name: "desc-limit-max-tables", box: with(func(q *core.Query) {
			q.Lower, q.Upper = i64(1), i64(1<<33)
			q.MinTs, q.MaxTs = 5, 5
			q.Descending = true
			q.Limit = 1<<32 - 1
		}), maxTables: 3},
	}
}

// boxPayloads encodes c as each of the three box-carrying messages.
func boxPayloads(c boxCase) map[string][]byte {
	return map[string][]byte{
		"query":   encode(&Query{Table: "usage", Query: c.box}),
		"delete":  encode(&Delete{Table: "usage", Query: c.box}),
		"scatter": encode(&ScatterQuery{Prefix: "cust_", Query: c.box, MaxTables: c.maxTables}),
	}
}

func TestBoxPayloadGolden(t *testing.T) {
	if ProtocolVersion != 2 {
		t.Errorf("ProtocolVersion = %d; the golden payloads are version 2's", ProtocolVersion)
	}
	var b strings.Builder
	for _, c := range boxCases() {
		p := boxPayloads(c)
		for _, msg := range []string{"query", "delete", "scatter"} {
			fmt.Fprintf(&b, "%s/%s %s\n", c.name, msg, hex.EncodeToString(p[msg]))
		}
	}
	checkGolden(t, "box_payloads.golden", b.String())
}
