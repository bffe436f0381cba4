package wire

import (
	"bytes"
	"math"
	"net"
	"sync"
	"testing"
	"testing/quick"

	"littletable/internal/core"
	"littletable/internal/ltval"
	"littletable/internal/schema"
)

func testSchema(t testing.TB) *schema.Schema {
	t.Helper()
	return schema.MustNew([]schema.Column{
		{Name: "k", Type: ltval.Int64},
		{Name: "ts", Type: ltval.Timestamp},
		{Name: "name", Type: ltval.String},
		{Name: "v", Type: ltval.Double},
	}, []string{"k", "ts"})
}

func TestConnRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	ca, cb := NewConn(a), NewConn(b)
	done := make(chan error, 1)
	go func() {
		done <- ca.WriteMsg(MsgHello, []byte{1, 2, 3})
	}()
	mt, payload, err := cb.ReadMsg()
	if err != nil {
		t.Fatal(err)
	}
	if mt != MsgHello || !bytes.Equal(payload, []byte{1, 2, 3}) {
		t.Fatalf("got %d %v", mt, payload)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestConnEmptyPayload(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	ca, cb := NewConn(a), NewConn(b)
	go ca.WriteMsg(MsgOK, nil)
	mt, payload, err := cb.ReadMsg()
	if err != nil || mt != MsgOK || len(payload) != 0 {
		t.Fatalf("%v %d %v", err, mt, payload)
	}
}

func TestConnRejectsHugeFrame(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	if err := c.WriteMsg(MsgInsert, make([]byte, MaxFrame)); err != ErrFrameTooBig {
		t.Errorf("oversized write: %v", err)
	}
	// A corrupt length on read.
	buf.Reset()
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff, 1})
	if _, _, err := NewConn(&buf).ReadMsg(); err == nil {
		t.Error("oversized frame length accepted")
	}
}

func TestBufDecRoundTrip(t *testing.T) {
	var b Buf
	b.U8(7)
	b.U32(1 << 30)
	b.U64(1 << 60)
	b.I64(-12345)
	b.Bool(true)
	b.Bool(false)
	b.Bytes([]byte("blob"))
	b.String("str")
	b.Value(ltval.NewDouble(2.5))
	b.Values([]ltval.Value{ltval.NewInt64(1), ltval.NewString("x")})
	d := Dec{B: b.B}
	if d.U8() != 7 || d.U32() != 1<<30 || d.U64() != 1<<60 || d.I64() != -12345 {
		t.Fatal("numeric round trip failed")
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("bool round trip failed")
	}
	if string(d.Bytes()) != "blob" || d.String() != "str" {
		t.Fatal("bytes round trip failed")
	}
	if v := d.Value(); v.Type != ltval.Double || v.Float != 2.5 {
		t.Fatalf("value round trip: %v", v)
	}
	vs := d.Values()
	if len(vs) != 2 || vs[0].Int != 1 || string(vs[1].Bytes) != "x" {
		t.Fatalf("values round trip: %v", vs)
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestDecTruncation(t *testing.T) {
	var b Buf
	b.String("hello")
	b.U64(42)
	full := b.B
	for cut := 0; cut < len(full); cut++ {
		d := Dec{B: full[:cut]}
		_ = d.String()
		_ = d.U64()
		if d.Done() == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestMessagesRoundTrip(t *testing.T) {
	sc := testSchema(t)

	h := &Hello{Version: 3}
	if got, err := Decode[Hello](encode(h)); err != nil || got.Version != 3 {
		t.Errorf("Hello: %v %v", got, err)
	}

	ct := &CreateTable{Name: "events", Schema: sc, TTL: 86400}
	p, err := Encode(ct)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode[CreateTable](p)
	if err != nil || got.Name != "events" || got.TTL != 86400 || got.Schema.KeyLen() != 2 {
		t.Errorf("CreateTable: %+v %v", got, err)
	}

	tn := &TableName{Name: "usage"}
	if got, err := Decode[TableName](encode(tn)); err != nil || got.Name != "usage" {
		t.Errorf("TableName: %v %v", got, err)
	}

	q := &Query{Table: "usage", Query: core.Query{
		Lower:    []ltval.Value{ltval.NewInt64(5)},
		LowerInc: true,
		Upper:    []ltval.Value{ltval.NewInt64(5), ltval.NewTimestamp(10)},
		UpperInc: false,
		MinTs:    -100, MaxTs: 100,
		Descending: true,
		Limit:      64,
	}}
	gq, err := Decode[Query](encode(q))
	if err != nil {
		t.Fatal(err)
	}
	if gq.Table != "usage" || len(gq.Lower) != 1 || gq.Lower[0].Int != 5 ||
		len(gq.Upper) != 2 || gq.UpperInc || !gq.Descending || gq.Limit != 64 ||
		gq.MinTs != -100 || gq.MaxTs != 100 {
		t.Errorf("Query: %+v", gq)
	}

	lr := &LatestRow{Table: "usage", Prefix: []ltval.Value{ltval.NewInt64(9)}}
	if got, err := Decode[LatestRow](encode(lr)); err != nil || got.Prefix[0].Int != 9 {
		t.Errorf("LatestRow: %v %v", got, err)
	}

	at := &AlterTTL{Table: "usage", TTL: -1}
	if got, err := Decode[AlterTTL](encode(at)); err != nil || got.TTL != -1 {
		t.Errorf("AlterTTL: %v %v", got, err)
	}

	ac := &AddColumn{Table: "usage", Name: "tag", Type: ltval.String, Default: ltval.NewString("d")}
	gac, err := Decode[AddColumn](encode(ac))
	if err != nil || gac.Name != "tag" || string(gac.Default.Bytes) != "d" {
		t.Errorf("AddColumn: %+v %v", gac, err)
	}
	// Without a default.
	ac2 := &AddColumn{Table: "usage", Name: "n", Type: ltval.Int64}
	gac2, err := Decode[AddColumn](encode(ac2))
	if err != nil || gac2.Default.Type != ltval.Invalid {
		t.Errorf("AddColumn no default: %+v %v", gac2, err)
	}

	wc := &WidenColumn{Table: "usage", Name: "count"}
	if got, err := Decode[WidenColumn](encode(wc)); err != nil || got.Name != "count" {
		t.Errorf("WidenColumn: %v %v", got, err)
	}

	em := &ErrorMsg{Message: "boom"}
	if got, err := Decode[ErrorMsg](encode(em)); err != nil || got.Message != "boom" {
		t.Errorf("ErrorMsg: %v %v", got, err)
	}

	tl := &TableList{Names: []string{"a", "b"}}
	if got, err := Decode[TableList](encode(tl)); err != nil || len(got.Names) != 2 {
		t.Errorf("TableList: %v %v", got, err)
	}

	sr := &SchemaResp{Schema: sc, TTL: 77}
	p, err = Encode(sr)
	if err != nil {
		t.Fatal(err)
	}
	gsr, err := Decode[SchemaResp](p)
	if err != nil || gsr.TTL != 77 || gsr.Schema.ColumnIndex("name") != 2 {
		t.Errorf("SchemaResp: %v %v", gsr, err)
	}

}

func TestInsertRoundTrip(t *testing.T) {
	sc := testSchema(t)
	rows := []schema.Row{
		{ltval.NewInt64(1), ltval.NewTimestamp(10), ltval.NewString("a"), ltval.NewDouble(1)},
		{ltval.NewInt64(2), ltval.NewTimestamp(20), ltval.NewString("b"), ltval.NewDouble(2)},
	}
	m := NewInsert("usage", sc, true, rows)
	payload := m.Encode()
	if len(payload) != cap(payload) {
		t.Errorf("Encode sized its buffer %d for a %d-byte payload", cap(payload), len(payload))
	}
	got, d, err := DecodeInsertHeader(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Table != "usage" || got.SchemaVersion != sc.Version || !got.ServerTimestamps {
		t.Fatalf("header: %+v", got)
	}
	if err := got.FinishDecode(d, sc); err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 2 || got.Rows[1][0].Int != 2 || string(got.Rows[0][2].Bytes) != "a" {
		t.Fatalf("rows: %v", got.Rows)
	}
}

func TestRowsRoundTrip(t *testing.T) {
	sc := testSchema(t)
	m := &Rows{SchemaVersion: 1, More: true, Rows: []schema.Row{
		{ltval.NewInt64(7), ltval.NewTimestamp(70), ltval.NewString("x"), ltval.NewDouble(7)},
	}}
	got, err := DecodeRows(m.Encode(sc), sc)
	if err != nil || !got.More || len(got.Rows) != 1 || got.Rows[0][0].Int != 7 {
		t.Fatalf("Rows: %+v %v", got, err)
	}
	empty := &Rows{SchemaVersion: 1}
	got, err = DecodeRows(empty.Encode(sc), sc)
	if err != nil || got.More || len(got.Rows) != 0 {
		t.Fatalf("empty Rows: %+v %v", got, err)
	}
}

// TestRowsWriterReusedRowAcrossSlabs streams a page the way the server
// does — one row buffer, overwritten between appends — and decodes it the
// way the client does, into rows carved from shared slabs. Every row must
// come back whole, and stay whole when a neighbour is appended to.
func TestRowsWriterReusedRowAcrossSlabs(t *testing.T) {
	sc := testSchema(t)
	const n = 2*rowSlabRows + 7
	w := NewRowsWriter(sc, sc.Version)
	row := make(schema.Row, 4)
	name := []byte("dev-000")
	for i := 0; i < n; i++ {
		name[6] = byte('0' + i%10)
		row[0], row[1], row[2], row[3] = ltval.NewInt64(int64(i)), ltval.NewTimestamp(int64(10*i)), ltval.Value{Type: ltval.String, Bytes: name}, ltval.NewDouble(float64(i)/2)
		w.Append(row)
	}
	if w.Len() != n {
		t.Fatalf("Len = %d", w.Len())
	}
	got, err := DecodeRows(w.Finish(true), sc)
	if err != nil || !got.More || got.SchemaVersion != sc.Version || len(got.Rows) != n {
		t.Fatalf("decoded %d rows, more=%v: %v", len(got.Rows), got.More, err)
	}
	_ = append(got.Rows[0], ltval.NewInt64(-1)) // must not spill into row 1
	for i, r := range got.Rows {
		if len(r) != 4 || r[0].Int != int64(i) || r[1].Int != int64(10*i) || string(r[2].Bytes) != "dev-00"+string(rune('0'+i%10)) || r[3].Float != float64(i)/2 {
			t.Fatalf("row %d = %v", i, r)
		}
	}
}

func TestRowResultRoundTrip(t *testing.T) {
	sc := testSchema(t)
	m := &RowResult{Found: true, Row: schema.Row{
		ltval.NewInt64(1), ltval.NewTimestamp(2), ltval.NewString("s"), ltval.NewDouble(3),
	}}
	got, err := DecodeRowResult(m.Encode(sc), sc)
	if err != nil || !got.Found || got.Row[3].Float != 3 {
		t.Fatalf("RowResult: %+v %v", got, err)
	}
	miss := &RowResult{}
	got, err = DecodeRowResult(miss.Encode(sc), sc)
	if err != nil || got.Found {
		t.Fatalf("missing RowResult: %+v %v", got, err)
	}
}

func TestQueryQuickRoundTrip(t *testing.T) {
	f := func(table string, lower, upper int64, lowInc, upInc, desc bool, limit uint32) bool {
		q := &Query{Table: table, Query: core.Query{
			Lower: []ltval.Value{ltval.NewInt64(lower)}, LowerInc: lowInc,
			Upper: []ltval.Value{ltval.NewInt64(upper)}, UpperInc: upInc,
			MinTs: lower, MaxTs: upper, Descending: desc, Limit: int(limit),
		}}
		g, err := Decode[Query](encode(q))
		return err == nil && g.Table == table && g.Lower[0].Int == lower &&
			g.Upper[0].Int == upper && g.LowerInc == lowInc && g.UpperInc == upInc &&
			g.Descending == desc && g.Limit == int(limit)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestEncodeReportsSchemaError: a schema that does not marshal (a NaN
// default has no JSON form) fails every message that carries it, and
// Send writes nothing.
func TestEncodeReportsSchemaError(t *testing.T) {
	sc := schema.MustNew([]schema.Column{
		{Name: "k", Type: ltval.Int64},
		{Name: "ts", Type: ltval.Timestamp},
		{Name: "v", Type: ltval.Double, Default: ltval.NewDouble(math.NaN())},
	}, []string{"k", "ts"})
	for _, m := range []Message{
		&CreateTable{Name: "t", Schema: sc},
		&SchemaResp{Schema: sc},
		&MigrateManifest{Schema: sc, Tablets: []MigrateTabletInfo{{File: "f"}}},
	} {
		if _, err := Encode(m); err == nil {
			t.Errorf("%T: encoded a schema with a NaN default", m)
		}
		var out bytes.Buffer
		if err := NewConn(&out).Send(MsgSchema, m); err == nil || out.Len() != 0 {
			t.Errorf("%T: Send = %v after writing %d bytes", m, err, out.Len())
		}
	}
}

// TestEncodeSharedMessage: the router encodes one request for every shard
// at once, so Encode only reads the message. Run it with -race.
func TestEncodeSharedMessage(t *testing.T) {
	for _, c := range goldenCases() {
		want := encode(c.m)
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got := encode(c.m); !bytes.Equal(got, want) {
					t.Errorf("%s: concurrent encode differs", c.name)
				}
			}()
		}
		wg.Wait()
	}
}
