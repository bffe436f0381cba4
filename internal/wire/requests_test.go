package wire

import (
	"errors"
	"runtime"
	"testing"

	"littletable/internal/core"
	"littletable/internal/ltval"
	"littletable/internal/metric"
	"littletable/internal/schema"
)

// TestRequestsCoverEveryConstant: there is one table, and every request
// constant has exactly one row in it. A constant added without a row (or
// a row whose Type is wrong) fails here rather than at the first retry.
func TestRequestsCoverEveryConstant(t *testing.T) {
	if got, want := len(Requests), int(msgRequestEnd)-1; got != want {
		t.Fatalf("Requests has %d rows for %d request constants", got, want)
	}
	names := make(map[string]bool)
	for mt := MsgHello; mt < msgRequestEnd; mt++ {
		req := RequestOf(mt)
		if req == nil {
			t.Errorf("request type %d has no row in Requests", mt)
			continue
		}
		if req.Type != mt {
			t.Errorf("RequestOf(%d) returned the row for %d", mt, req.Type)
		}
		if req.Name == "" || names[req.Name] {
			t.Errorf("request type %d: empty or duplicate name %q", mt, req.Name)
		}
		names[req.Name] = true
		if req.Route > RouteRouterOnly {
			t.Errorf("%s: unknown route %d", req.Name, req.Route)
		}
	}
	for _, mt := range []MsgType{0, msgRequestEnd, MsgOK, MsgAggResult, 255} {
		if RequestOf(mt) != nil {
			t.Errorf("RequestOf(%d) found a row for a non-request type", mt)
		}
	}
}

// mutating are the request types whose blind replay changes state twice.
// The list is kept here, apart from the table, as the independent
// reference: flipping MsgInsert to Idempotent in requests.go must fail a
// test, not wait for a reviewer. Keep in sync with the protocol's writes.
var mutating = []MsgType{
	MsgInsert, MsgDelete, MsgCreateTable, MsgDropTable, MsgAlterTTL,
	MsgAddColumn, MsgWidenColumn, MsgMigrateInstall, MsgMigrateTable,
}

func TestMutatingRequestsAreNeverIdempotent(t *testing.T) {
	for _, mt := range mutating {
		if req := RequestOf(mt); req == nil || req.Idempotent {
			t.Errorf("request type %d (%+v) must be classified non-idempotent: replaying it after an "+
				"unacknowledged send mutates state twice", mt, req)
		}
	}
}

// TestEveryResponseIsExpectedBySomeRequest: a response constant no row
// names is one no client call can ever accept.
func TestEveryResponseIsExpectedBySomeRequest(t *testing.T) {
	expected := map[MsgType]bool{MsgOK: true, MsgError: true, MsgOverloaded: true}
	for _, req := range Requests {
		if req.Response < MsgOK || req.Response >= msgResponseEnd {
			t.Errorf("%s: Response %d is not a response type", req.Name, req.Response)
		}
		expected[req.Response] = true
	}
	for mt := MsgOK; mt < msgResponseEnd; mt++ {
		if !expected[mt] {
			t.Errorf("response type %d is no request's expected response", mt)
		}
	}
}

func TestStatsRoundTrip(t *testing.T) {
	in := metric.List{
		{Name: "rows_inserted", Value: 1},
		{Name: "merges_in_flight", Value: -2},
		{Name: "metric_from_a_newer_peer", Value: 1 << 50},
	}
	m, err := Decode[StatsResult](encode(&StatsResult{Stats: in}))
	if err != nil {
		t.Fatal(err)
	}
	out := m.Stats
	if len(out) != len(in) {
		t.Fatalf("round trip: got %+v want %+v", out, in)
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("entry %d: got %+v want %+v", i, out[i], in[i])
		}
	}
	// A reader looks up the names it knows: one it has never heard of is
	// carried and ignored, one the peer lacks reads as zero.
	if out.Get("rows_inserted") != 1 || out.Get("merges_in_flight") != -2 || out.Get("not_sent") != 0 {
		t.Errorf("by-name read: %+v", out)
	}
	if m, err := Decode[StatsResult](encode(&StatsResult{})); err != nil || len(m.Stats) != 0 {
		t.Errorf("empty list: %+v %v", m, err)
	}
}

func TestStatsRejectsDuplicateNames(t *testing.T) {
	p := encode(&StatsResult{Stats: metric.List{{Name: "merges", Value: 1}, {Name: "queries", Value: 2}, {Name: "merges", Value: 3}}})
	if _, err := Decode[StatsResult](p); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("duplicate name: err = %v, want ErrCorrupt", err)
	}
}

// TestStatsRejectsHostileCount: a count the payload cannot hold must fail
// before the decoder sizes anything by it.
func TestStatsRejectsHostileCount(t *testing.T) {
	for _, n := range []uint32{2, 1 << 20, 0xffffffff} {
		var b Buf
		b.U32(n)
		b.String("x")
		b.I64(1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Decode[StatsResult](b.B)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("count %d over one entry: err = %v, want ErrCorrupt", n, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Errorf("count %d: decoder allocated %d bytes for a 17-byte payload", n, grew)
		}
	}
}

// TestRouteTableRequestsLeadWithTheirTable: the router relays a RouteTable
// request to the shard that owns the table PeekTable reads off the front
// of its payload, so every such payload must start with that name. A
// RouteTable row with no sample here fails, so a new request cannot skip
// the check.
func TestRouteTableRequestsLeadWithTheirTable(t *testing.T) {
	const table = "usage_7"
	sc := testSchema(t)
	row := schema.Row{ltval.NewInt64(1), ltval.NewTimestamp(2), ltval.NewString("x"), ltval.NewDouble(3)}
	name := encode(&TableName{Name: table})
	samples := map[MsgType][]byte{
		MsgCreateTable:    encode(&CreateTable{Name: table, Schema: sc, TTL: 60}),
		MsgDropTable:      name,
		MsgGetSchema:      name,
		MsgInsert:         NewInsert(table, sc, true, []schema.Row{row}).Encode(),
		MsgQuery:          encode(&Query{Table: table, Query: core.NewQuery()}),
		MsgLatestRow:      encode(&LatestRow{Table: table, Prefix: row[:1]}),
		MsgAlterTTL:       encode(&AlterTTL{Table: table, TTL: 60}),
		MsgAddColumn:      encode(&AddColumn{Table: table, Name: "n", Type: ltval.Int64, Default: ltval.NewInt64(1)}),
		MsgWidenColumn:    encode(&WidenColumn{Table: table, Name: "n"}),
		MsgFlushTable:     name,
		MsgStats:          name,
		MsgDelete:         encode(&Delete{Table: table, Query: core.NewQuery()}),
		MsgMigrateBegin:   encode(&MigrateBegin{Table: table}),
		MsgMigrateFetch:   encode(&MigrateFetch{Table: table, File: "000000000001.tab", MaxBytes: 1 << 16}),
		MsgMigrateEnd:     encode(&MigrateEnd{Table: table}),
		MsgMigrateInstall: encode(&MigrateInstall{Table: table, File: "000000000001.tab", Total: 1, Data: []byte{1}}),
	}
	routed := 0
	for _, req := range Requests {
		if req.Route != RouteTable {
			continue
		}
		routed++
		p, ok := samples[req.Type]
		if !ok {
			t.Errorf("%s routes by table name but has no sample payload here", req.Name)
			continue
		}
		if got, err := PeekTable(p); err != nil || got != table {
			t.Errorf("%s: PeekTable = %q, %v; want %q", req.Name, got, err, table)
		}
	}
	if routed != len(samples) {
		t.Errorf("%d samples for %d RouteTable requests", len(samples), routed)
	}
}
