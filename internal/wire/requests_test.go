package wire

import (
	"errors"
	"runtime"
	"testing"

	"littletable/internal/metric"
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
	out, err := DecodeStats(EncodeStats(in))
	if err != nil {
		t.Fatal(err)
	}
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
	if l, err := DecodeStats(EncodeStats(nil)); err != nil || len(l) != 0 {
		t.Errorf("empty list: %+v %v", l, err)
	}
}

func TestStatsRejectsDuplicateNames(t *testing.T) {
	p := EncodeStats(metric.List{{Name: "merges", Value: 1}, {Name: "queries", Value: 2}, {Name: "merges", Value: 3}})
	if _, err := DecodeStats(p); !errors.Is(err, ErrCorrupt) {
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
		_, err := DecodeStats(b.B)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("count %d over one entry: err = %v, want ErrCorrupt", n, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Errorf("count %d: decoder allocated %d bytes for a 17-byte payload", n, grew)
		}
	}
}
