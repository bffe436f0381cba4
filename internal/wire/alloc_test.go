package wire

import (
	"encoding/binary"
	"runtime"
	"testing"

	"littletable/internal/agg"
	"littletable/internal/core"
	"littletable/internal/ltval"
	"littletable/internal/race"
)

// TestColdCodecAllocs pins what the messages sent once per request cost
// to encode and decode. Encoding allocates only the payload, copied out at
// its exact size. Decoding allocates the message and what it carries:
// strings, value lists and the aggregate list; the codec itself comes
// from a pool.
func TestColdCodecAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	key := func(a, b int64) []ltval.Value { return []ltval.Value{ltval.NewInt64(a), ltval.NewInt64(b)} }
	cases := []struct {
		m      Message
		decode float64 // the message, its strings and its lists
	}{
		{&Query{Table: "usage_03", Query: core.Query{Lower: key(1, 2), LowerInc: true, Upper: key(1, 9), UpperInc: true,
			MinTs: 1_700_000_000_000_000, MaxTs: 1_700_000_600_000_000, Descending: true, Limit: 1000}}, 4},
		{&LatestRow{Table: "usage_03", Prefix: key(4, 7)}, 3},
		{&AggQuery{Prefix: "usage_", Spec: agg.Spec{BucketWidth: 60_000_000, GroupCols: 1, Aggs: []agg.Agg{
			{Func: agg.Count}, {Func: agg.Sum, Col: "bytes"}, {Func: agg.Min, Col: "rate"},
			{Func: agg.Max, Col: "rate"}, {Func: agg.Avg, Col: "rate"}, {Func: agg.Quantile, Col: "bytes", Q: 0.95}}},
			MinTs: 1_700_000_000_000_000, MaxTs: 1_700_000_600_000_000}, 8},
		{&ErrorMsg{Message: `core: table "usage_99" does not exist`}, 2},
	}
	for _, c := range cases {
		p := encode(c.m)
		if n := testing.AllocsPerRun(1000, func() { encode(c.m) }); n > 1 {
			t.Errorf("%T: encode allocates %v times, want 1", c.m, n)
		}
		if n := testing.AllocsPerRun(1000, func() { decode(p, newLike(c.m)) }); n > c.decode {
			t.Errorf("%T: decode allocates %v times, want %v", c.m, n, c.decode)
		}
	}
}

// TestValuesCountBoundedByPayload: a value list's count cannot make the
// decoder allocate more than the payload holds. A 1 MiB LatestRow whose
// prefix claims 1,048,576 values once allocated 48 B for each before
// failing, about 50 MB.
func TestValuesCountBoundedByPayload(t *testing.T) {
	p := encode(&LatestRow{Table: "usage"})
	p = binary.LittleEndian.AppendUint32(p[:len(p)-4], 1<<20)
	p = append(p, make([]byte, 1<<20-len(p))...)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	err := decode(p, &LatestRow{})
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("decoding 1,048,576 values from 1 MiB succeeded")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 2*uint64(len(p)) {
		t.Errorf("decoding a hostile count allocated %d B, want at most %d (twice the payload)", n, 2*len(p))
	}
}

// TestAggGroupsCountBoundedByPayload: an aggregate result's group count
// cannot make the decoder allocate more than the payload holds, though
// it presizes its groups and their states from the count. A 64 KiB
// payload of zeroed groups claims 1<<30 of them, then as many as it has
// bytes, which a bound of one group per byte let through to decode
// about 500 groups before the payload ran out.
func TestAggGroupsCountBoundedByPayload(t *testing.T) {
	p := (&AggResult{Spec: testAggSpec()}).Encode()
	at := len(p) - 13 // the merged groups' count, before RowsFolded and Truncated
	p = append(p[:at:at], make([]byte, 64<<10)...)
	for _, count := range []uint32{1 << 30, uint32(len(p))} {
		binary.LittleEndian.PutUint32(p[at:], count)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := DecodeAggResult(p)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("decoding %d groups from %d B succeeded", count, len(p))
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 2*uint64(len(p)) {
			t.Errorf("decoding a claimed %d groups allocated %d B, want at most %d (twice the payload)", count, n, 2*len(p))
		}
	}
}
