package server

import (
	"net"
	"strings"
	"testing"

	"littletable/internal/core"
	"littletable/internal/ltval"
	"littletable/internal/schema"
	"littletable/internal/wire"
)

// wireClient is a minimal raw-protocol client for driving the new
// endpoints in-process; the full pooled client lives in internal/client
// and gets its own coverage there.
type wireClient struct {
	t  *testing.T
	wc *wire.Conn
}

// encode is wire.Encode for a message that carries no schema, which
// cannot fail to encode.
func encode(m wire.Message) []byte {
	p, err := wire.Encode(m)
	if err != nil {
		panic(err)
	}
	return p
}

func dialWireClient(t *testing.T, addr net.Addr) *wireClient {
	t.Helper()
	_, wc := dialWire(t, addr)
	return &wireClient{t: t, wc: wc}
}

func (c *wireClient) do(mt wire.MsgType, payload []byte) (wire.MsgType, []byte) {
	c.t.Helper()
	if err := c.wc.WriteMsg(mt, payload); err != nil {
		c.t.Fatal(err)
	}
	rt, resp, err := c.wc.ReadMsg()
	if err != nil {
		c.t.Fatal(err)
	}
	return rt, resp
}

func (c *wireClient) mustOK(mt wire.MsgType, payload []byte) {
	c.t.Helper()
	rt, resp := c.do(mt, payload)
	if rt != wire.MsgOK {
		if rt == wire.MsgError {
			if m, err := wire.Decode[wire.ErrorMsg](resp); err == nil {
				c.t.Fatalf("server error: %s", m.Message)
			}
		}
		c.t.Fatalf("got message type %d, want OK", rt)
	}
}

func (c *wireClient) mustErr(mt wire.MsgType, payload []byte, substr string) {
	c.t.Helper()
	rt, resp := c.do(mt, payload)
	if rt != wire.MsgError {
		c.t.Fatalf("got message type %d, want Error", rt)
	}
	m, err := wire.Decode[wire.ErrorMsg](resp)
	if err != nil {
		c.t.Fatal(err)
	}
	if substr != "" && !strings.Contains(m.Message, substr) {
		c.t.Fatalf("error %q does not contain %q", m.Message, substr)
	}
}

func insertRows(t *testing.T, s *Server, table string, keys ...int64) {
	t.Helper()
	tab, err := s.Table(table)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]schema.Row, 0, len(keys))
	for _, k := range keys {
		rows = append(rows, schema.Row{ltval.NewInt64(k), ltval.NewTimestamp(k + 1)})
	}
	if err := tab.Insert(rows); err != nil {
		t.Fatal(err)
	}
}

func TestScatterQueryAcrossTables(t *testing.T) {
	s := newServer(t, t.TempDir())
	for _, name := range []string{"cust_a", "cust_b", "cust_c", "other"} {
		if _, err := s.CreateTable(name, testSchema(), 0); err != nil {
			t.Fatal(err)
		}
	}
	insertRows(t, s, "cust_a", 1, 2, 3)
	insertRows(t, s, "cust_b", 10, 11)
	insertRows(t, s, "other", 99)
	// cust_c stays empty.

	c := dialWireClient(t, serveTCP(t, s))
	rt, resp := c.do(wire.MsgScatterQuery, encode(&wire.ScatterQuery{Prefix: "cust_", Query: core.Query{MaxTs: 1 << 40}}))
	if rt != wire.MsgScatterRows {
		t.Fatalf("got message type %d, want ScatterRows", rt)
	}
	m, err := wire.DecodeScatterRows(resp)
	if err != nil {
		t.Fatal(err)
	}
	if m.Truncated || len(m.Tables) != 3 {
		t.Fatalf("got truncated=%v tables=%d, want 3 untruncated", m.Truncated, len(m.Tables))
	}
	wantRows := map[string]int{"cust_a": 3, "cust_b": 2, "cust_c": 0}
	for i, sec := range m.Tables {
		if n, ok := wantRows[sec.Table]; !ok || len(sec.Rows) != n {
			t.Errorf("section %d table %q: %d rows", i, sec.Table, len(sec.Rows))
		}
		if i > 0 && sec.Table <= m.Tables[i-1].Table {
			t.Errorf("sections out of order: %q after %q", sec.Table, m.Tables[i-1].Table)
		}
	}

	// Per-table limit sets the More flag per section.
	rt, resp = c.do(wire.MsgScatterQuery, encode(&wire.ScatterQuery{Prefix: "cust_", Query: core.Query{MaxTs: 1 << 40, Limit: 2}}))
	if rt != wire.MsgScatterRows {
		t.Fatalf("got message type %d", rt)
	}
	m, err = wire.DecodeScatterRows(resp)
	if err != nil {
		t.Fatal(err)
	}
	for _, sec := range m.Tables {
		switch sec.Table {
		case "cust_a":
			if len(sec.Rows) != 2 || !sec.More {
				t.Errorf("cust_a: rows=%d more=%v, want 2/true", len(sec.Rows), sec.More)
			}
		case "cust_b":
			if len(sec.Rows) != 2 || sec.More {
				t.Errorf("cust_b: rows=%d more=%v, want 2/false", len(sec.Rows), sec.More)
			}
		}
	}

	// MaxTables truncates deterministically (sorted order).
	rt, resp = c.do(wire.MsgScatterQuery, encode(&wire.ScatterQuery{Prefix: "cust_", Query: core.Query{MaxTs: 1 << 40}, MaxTables: 2}))
	if rt != wire.MsgScatterRows {
		t.Fatalf("got message type %d", rt)
	}
	m, err = wire.DecodeScatterRows(resp)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Truncated || len(m.Tables) != 2 || m.Tables[0].Table != "cust_a" || m.Tables[1].Table != "cust_b" {
		t.Fatalf("truncation wrong: %+v", m)
	}
}

func TestMigrateOverWire(t *testing.T) {
	src := newServer(t, t.TempDir())
	dst := newServer(t, t.TempDir())
	if _, err := src.CreateTable("t1", testSchema(), 0); err != nil {
		t.Fatal(err)
	}
	insertRows(t, src, "t1", 1, 2, 3, 4, 5)

	cs := dialWireClient(t, serveTCP(t, src))
	cd := dialWireClient(t, serveTCP(t, dst))

	// Begin: manifest with schema + tablets (flush happened server-side).
	rt, resp := cs.do(wire.MsgMigrateBegin, encode(&wire.MigrateBegin{Table: "t1"}))
	if rt != wire.MsgMigrateManifest {
		t.Fatalf("got message type %d, want Manifest", rt)
	}
	man, err := wire.Decode[wire.MigrateManifest](resp)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Tablets) == 0 || man.Schema == nil {
		t.Fatalf("empty manifest: %+v", man)
	}

	// Create the table on the target, then ship every tablet in small
	// chunks to exercise offset staging.
	ct, err := wire.Encode(&wire.CreateTable{Name: "t1", Schema: man.Schema, TTL: man.TTL})
	if err != nil {
		t.Fatal(err)
	}
	cd.mustOK(wire.MsgCreateTable, ct)
	for _, tab := range man.Tablets {
		var off int64
		for {
			rt, resp := cs.do(wire.MsgMigrateFetch, encode(&wire.MigrateFetch{
				Table: "t1", File: tab.File, Offset: off, MaxBytes: 128,
			}))
			if rt != wire.MsgMigrateChunk {
				t.Fatalf("fetch got message type %d", rt)
			}
			ch, err := wire.Decode[wire.MigrateChunk](resp)
			if err != nil {
				t.Fatal(err)
			}
			if ch.Total != tab.Bytes {
				t.Fatalf("chunk total %d, manifest %d", ch.Total, tab.Bytes)
			}
			last := off+int64(len(ch.Data)) == ch.Total
			cd.mustOK(wire.MsgMigrateInstall, encode(&wire.MigrateInstall{
				Table: "t1", File: tab.File, Offset: off, Total: ch.Total,
				RowCount: tab.RowCount, MinTs: tab.MinTs, MaxTs: tab.MaxTs,
				Commit: last, Data: ch.Data,
			}))
			off += int64(len(ch.Data))
			if last {
				break
			}
		}
	}
	cs.mustOK(wire.MsgMigrateEnd, encode(&wire.MigrateEnd{Table: "t1"}))

	// All rows must be readable from the target.
	rt, resp = cd.do(wire.MsgQuery, encode(&wire.Query{Table: "t1", Query: core.Query{MaxTs: 1 << 40}}))
	if rt != wire.MsgRows {
		t.Fatalf("query got message type %d", rt)
	}
	rows, err := wire.DecodeRows(resp, man.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Rows) != 5 {
		t.Fatalf("target has %d rows, want 5", len(rows.Rows))
	}
}

func TestMigrateInstallOffsetDiscipline(t *testing.T) {
	s := newServer(t, t.TempDir())
	if _, err := s.CreateTable("t1", testSchema(), 0); err != nil {
		t.Fatal(err)
	}
	c := dialWireClient(t, serveTCP(t, s))

	// A gap in offsets must be refused with a restart hint.
	c.mustOK(wire.MsgMigrateInstall, encode(&wire.MigrateInstall{
		Table: "t1", File: "x.tab", Offset: 0, Total: 10, Data: []byte{1, 2, 3},
	}))
	c.mustErr(wire.MsgMigrateInstall, encode(&wire.MigrateInstall{
		Table: "t1", File: "x.tab", Offset: 7, Total: 10, Data: []byte{1},
	}), "restart at 0")
	// Committing with missing bytes must be refused.
	c.mustErr(wire.MsgMigrateInstall, encode(&wire.MigrateInstall{
		Table: "t1", File: "x.tab", Offset: 3, Total: 10, Data: []byte{4}, Commit: true,
	}), "staged")
	// Garbage bytes at commit must be refused by verification, and the
	// staging buffer for the file is gone afterwards (offset 3 refused).
	c.mustOK(wire.MsgMigrateInstall, encode(&wire.MigrateInstall{
		Table: "t1", File: "x.tab", Offset: 0, Total: 4, Data: []byte{9, 9},
	}))
	c.mustErr(wire.MsgMigrateInstall, encode(&wire.MigrateInstall{
		Table: "t1", File: "x.tab", Offset: 2, Total: 4, Data: []byte{9, 9}, Commit: true,
	}), "install tablet")
	c.mustErr(wire.MsgMigrateInstall, encode(&wire.MigrateInstall{
		Table: "t1", File: "x.tab", Offset: 2, Total: 4, Data: []byte{9, 9},
	}), "restart at 0")
	// A chunk longer than its advertised span is refused outright.
	c.mustErr(wire.MsgMigrateInstall, encode(&wire.MigrateInstall{
		Table: "t1", File: "y.tab", Offset: 0, Total: 1, Data: []byte{1, 2, 3},
	}), "exceeds")

	tab, err := s.Table("t1")
	if err != nil {
		t.Fatal(err)
	}
	if n := tab.DiskTabletCount(); n != 0 {
		t.Fatalf("refused installs left %d tablets", n)
	}
}

func TestMigrateEndReleasesExportAndStaging(t *testing.T) {
	s := newServer(t, t.TempDir())
	if _, err := s.CreateTable("t1", testSchema(), 0); err != nil {
		t.Fatal(err)
	}
	insertRows(t, s, "t1", 1)
	c := dialWireClient(t, serveTCP(t, s))
	rt, _ := c.do(wire.MsgMigrateBegin, encode(&wire.MigrateBegin{Table: "t1"}))
	if rt != wire.MsgMigrateManifest {
		t.Fatalf("got %d", rt)
	}
	c.mustOK(wire.MsgMigrateInstall, encode(&wire.MigrateInstall{
		Table: "t1", File: "z.tab", Offset: 0, Total: 100, Data: []byte{1, 2},
	}))
	c.mustOK(wire.MsgMigrateEnd, encode(&wire.MigrateEnd{Table: "t1"}))
	s.migMu.Lock()
	staged := len(s.installs)
	bytes := s.stagedBytes
	s.migMu.Unlock()
	if staged != 0 || bytes != 0 {
		t.Fatalf("staging not released: %d entries, %d bytes", staged, bytes)
	}
	// End on a missing table is OK (idempotent cleanup).
	c.mustOK(wire.MsgMigrateEnd, encode(&wire.MigrateEnd{Table: "missing"}))
}
