// Package client's tests double as the client↔server integration suite:
// every request travels over a real TCP connection to a real server
// backed by real tables on disk.
package client

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"littletable/internal/clock"
	"littletable/internal/core"
	"littletable/internal/ltval"
	"littletable/internal/schema"
	"littletable/internal/server"
)

func startServer(t testing.TB, copts core.Options) (*server.Server, string) {
	t.Helper()
	if copts.Clock == nil {
		copts.Clock = clock.Real{}
	}
	s, err := server.New(server.Options{
		Root:                t.TempDir(),
		Core:                copts,
		MaintenanceInterval: 50 * time.Millisecond,
		QueryRowLimit:       copts.QueryRowLimit,
		Logf:                t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(lis)
	t.Cleanup(func() { s.Close() })
	return s, lis.Addr().String()
}

func dial(t testing.TB, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func eventsSchema() *schema.Schema {
	return schema.MustNew([]schema.Column{
		{Name: "network", Type: ltval.Int64},
		{Name: "device", Type: ltval.Int64},
		{Name: "ts", Type: ltval.Timestamp},
		{Name: "event_id", Type: ltval.Int64},
		{Name: "message", Type: ltval.String},
	}, []string{"network", "device", "ts"})
}

func eventRow(n, d, ts, id int64, msg string) schema.Row {
	return schema.Row{
		ltval.NewInt64(n), ltval.NewInt64(d), ltval.NewTimestamp(ts),
		ltval.NewInt64(id), ltval.NewString(msg),
	}
}

func TestCreateListDropTables(t *testing.T) {
	_, addr := startServer(t, core.Options{})
	c := dial(t, addr)
	if err := c.CreateTable("events", eventsSchema(), 0); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable("usage", eventsSchema(), clock.Day); err != nil {
		t.Fatal(err)
	}
	names, err := c.ListTables()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "events" || names[1] != "usage" {
		t.Fatalf("ListTables = %v", names)
	}
	if err := c.DropTable("usage"); err != nil {
		t.Fatal(err)
	}
	names, _ = c.ListTables()
	if len(names) != 1 {
		t.Fatalf("after drop: %v", names)
	}
	// Errors are RemoteErrors.
	var re *RemoteError
	if err := c.DropTable("usage"); !errors.As(err, &re) {
		t.Errorf("double drop: %v", err)
	}
	if err := c.CreateTable("events", eventsSchema(), 0); !errors.As(err, &re) {
		t.Errorf("duplicate create: %v", err)
	}
	if err := c.CreateTable("../evil", eventsSchema(), 0); !errors.As(err, &re) {
		t.Errorf("path traversal name: %v", err)
	}
}

func TestInsertAndQueryOverWire(t *testing.T) {
	_, addr := startServer(t, core.Options{})
	c := dial(t, addr)
	if err := c.CreateTable("events", eventsSchema(), 0); err != nil {
		t.Fatal(err)
	}
	tab, err := c.OpenTable("events")
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now().UnixMicro()
	for i := int64(0); i < 100; i++ {
		if err := tab.Insert(eventRow(1, i%5, now-i*1000, i, "assoc")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.Flush(); err != nil {
		t.Fatal(err)
	}
	rows, err := tab.Query(NewQuery()).All()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 100 {
		t.Fatalf("got %d rows over the wire", len(rows))
	}
	sc := tab.Schema()
	for i := 1; i < len(rows); i++ {
		if sc.CompareKeys(rows[i-1], rows[i]) >= 0 {
			t.Fatal("wire results unordered")
		}
	}
	// Bounded query: device 3 only.
	q := NewQuery()
	q.Lower = []ltval.Value{ltval.NewInt64(1), ltval.NewInt64(3)}
	q.Upper = q.Lower
	rows, err = tab.Query(q).All()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20 {
		t.Fatalf("bounded wire query: %d rows", len(rows))
	}
}

func TestMoreAvailablePagination(t *testing.T) {
	// Tiny server row limit forces the client to re-submit repeatedly.
	_, addr := startServer(t, core.Options{QueryRowLimit: 7})
	c := dial(t, addr)
	if err := c.CreateTable("events", eventsSchema(), 0); err != nil {
		t.Fatal(err)
	}
	tab, err := c.OpenTable("events")
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now().UnixMicro()
	for i := int64(0); i < 100; i++ {
		tab.Insert(eventRow(1, i, now, i, "e"))
	}
	if err := tab.Flush(); err != nil {
		t.Fatal(err)
	}
	rows, err := tab.Query(NewQuery()).All()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 100 {
		t.Fatalf("pagination lost rows: %d", len(rows))
	}
	for i, r := range rows {
		if r[1].Int != int64(i) {
			t.Fatalf("row %d out of order after pagination: %v", i, r[1])
		}
	}
	// Descending pagination too.
	q := NewQuery()
	q.Descending = true
	rows, err = tab.Query(q).All()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 100 || rows[0][1].Int != 99 || rows[99][1].Int != 0 {
		t.Fatalf("descending pagination wrong: %d rows", len(rows))
	}
	// Client-side limit caps the stream.
	q = NewQuery()
	q.Limit = 15
	rows, err = tab.Query(q).All()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 15 {
		t.Fatalf("client limit: %d rows", len(rows))
	}
}

func TestServerTimestamps(t *testing.T) {
	_, addr := startServer(t, core.Options{})
	c := dial(t, addr)
	if err := c.CreateTable("events", eventsSchema(), 0); err != nil {
		t.Fatal(err)
	}
	tab, err := c.OpenTable("events")
	if err != nil {
		t.Fatal(err)
	}
	tab.ServerTimestamps = true
	before := time.Now().UnixMicro()
	if err := tab.InsertNow([]schema.Row{eventRow(1, 1, 0, 1, "no ts")}); err != nil {
		t.Fatal(err)
	}
	after := time.Now().UnixMicro()
	rows, err := tab.Query(NewQuery()).All()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatal("row missing")
	}
	ts := rows[0][2].Int
	if ts < before || ts > after {
		t.Errorf("server timestamp %d outside [%d, %d]", ts, before, after)
	}
}

func TestLatestRowOverWire(t *testing.T) {
	_, addr := startServer(t, core.Options{})
	c := dial(t, addr)
	if err := c.CreateTable("events", eventsSchema(), 0); err != nil {
		t.Fatal(err)
	}
	tab, err := c.OpenTable("events")
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now().UnixMicro()
	for i := int64(0); i < 10; i++ {
		tab.Insert(eventRow(1, 1, now-i*1_000_000, 100-i, "e"))
	}
	if err := tab.Flush(); err != nil {
		t.Fatal(err)
	}
	row, found, err := tab.LatestRow([]ltval.Value{ltval.NewInt64(1), ltval.NewInt64(1)})
	if err != nil || !found {
		t.Fatalf("LatestRow: %v %v", found, err)
	}
	if row[3].Int != 100 {
		t.Errorf("latest event id = %d, want 100", row[3].Int)
	}
	_, found, err = tab.LatestRow([]ltval.Value{ltval.NewInt64(42)})
	if err != nil || found {
		t.Errorf("missing prefix: %v %v", found, err)
	}
}

func TestSchemaChangeOverWire(t *testing.T) {
	_, addr := startServer(t, core.Options{})
	c := dial(t, addr)
	if err := c.CreateTable("events", eventsSchema(), 0); err != nil {
		t.Fatal(err)
	}
	tab, err := c.OpenTable("events")
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now().UnixMicro()
	tab.Insert(eventRow(1, 1, now, 1, "old"))
	if err := tab.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddColumn("severity", ltval.Int64, ltval.NewInt64(3)); err != nil {
		t.Fatal(err)
	}
	if tab.Schema().ColumnIndex("severity") != 5 {
		t.Fatal("schema not refreshed after AddColumn")
	}
	rows, err := tab.Query(NewQuery()).All()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][5].Int != 3 {
		t.Fatalf("old row after AddColumn: %v", rows)
	}
	// TTL change.
	if err := tab.AlterTTL(clock.Week); err != nil {
		t.Fatal(err)
	}
	if tab.TTL() != clock.Week {
		t.Error("TTL not cached after AlterTTL")
	}
}

func TestStaleSchemaRejected(t *testing.T) {
	_, addr := startServer(t, core.Options{})
	c1 := dial(t, addr)
	c2 := dial(t, addr)
	if err := c1.CreateTable("events", eventsSchema(), 0); err != nil {
		t.Fatal(err)
	}
	t1, err := c1.OpenTable("events")
	if err != nil {
		t.Fatal(err)
	}
	t2, err := c2.OpenTable("events")
	if err != nil {
		t.Fatal(err)
	}
	// c1 evolves the schema; c2's cache is now stale.
	if err := t1.AddColumn("extra", ltval.Int64, ltval.Value{}); err != nil {
		t.Fatal(err)
	}
	err = t2.InsertNow([]schema.Row{eventRow(1, 1, time.Now().UnixMicro(), 1, "x")})
	var re *RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, "stale schema") {
		t.Fatalf("stale insert: %v", err)
	}
	// After refresh, inserts with the new arity succeed.
	if err := t2.RefreshSchema(); err != nil {
		t.Fatal(err)
	}
	row := append(eventRow(1, 1, time.Now().UnixMicro(), 1, "x"), ltval.NewInt64(9))
	if err := t2.InsertNow([]schema.Row{row}); err != nil {
		t.Fatal(err)
	}
}

func TestFlushTableCommand(t *testing.T) {
	s, addr := startServer(t, core.Options{})
	c := dial(t, addr)
	if err := c.CreateTable("events", eventsSchema(), 0); err != nil {
		t.Fatal(err)
	}
	tab, err := c.OpenTable("events")
	if err != nil {
		t.Fatal(err)
	}
	tab.Insert(eventRow(1, 1, time.Now().UnixMicro(), 1, "x"))
	if err := tab.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tab.FlushTable(); err != nil {
		t.Fatal(err)
	}
	ct, err := s.Table("events")
	if err != nil {
		t.Fatal(err)
	}
	if ct.DiskTabletCount() == 0 {
		t.Error("FlushTable left rows in memory")
	}
}

func TestStatsOverWire(t *testing.T) {
	_, addr := startServer(t, core.Options{})
	c := dial(t, addr)
	if err := c.CreateTable("events", eventsSchema(), 0); err != nil {
		t.Fatal(err)
	}
	tab, err := c.OpenTable("events")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		tab.Insert(eventRow(1, i, time.Now().UnixMicro(), i, "x"))
	}
	if err := tab.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Query(NewQuery()).All(); err != nil {
		t.Fatal(err)
	}
	st, err := tab.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Get("rows_inserted") != 10 || st.Get("rows_returned") != 10 || st.Get("row_estimate") != 10 {
		t.Errorf("stats: %+v", st)
	}
}

func TestDuplicateKeyOverWire(t *testing.T) {
	_, addr := startServer(t, core.Options{})
	c := dial(t, addr)
	if err := c.CreateTable("events", eventsSchema(), 0); err != nil {
		t.Fatal(err)
	}
	tab, err := c.OpenTable("events")
	if err != nil {
		t.Fatal(err)
	}
	r := eventRow(1, 1, 12345, 1, "x")
	if err := tab.InsertNow([]schema.Row{r}); err != nil {
		t.Fatal(err)
	}
	var re *RemoteError
	if err := tab.InsertNow([]schema.Row{r}); !errors.As(err, &re) {
		t.Errorf("duplicate over wire: %v", err)
	}
}

func TestDisconnectDetection(t *testing.T) {
	s, addr := startServer(t, core.Options{})
	c := dial(t, addr)
	if err := c.CreateTable("events", eventsSchema(), 0); err != nil {
		t.Fatal(err)
	}
	tab, err := c.OpenTable("events")
	if err != nil {
		t.Fatal(err)
	}
	// Kill the server; the persistent connection notices on next use
	// (§3.1: clients detect server crashes through the connection).
	s.Close()
	err = tab.InsertNow([]schema.Row{eventRow(1, 1, 1, 1, "x")})
	if !errors.Is(err, ErrDisconnected) {
		t.Fatalf("after server death: %v", err)
	}
	// Subsequent calls fail fast.
	if _, err := c.ListTables(); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("dead client reuse: %v", err)
	}
}

func TestServerRecoversTablesOnRestart(t *testing.T) {
	copts := core.Options{Clock: clock.Real{}}
	root := t.TempDir()
	s1, err := server.New(server.Options{Root: root, Core: copts, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s1.Serve(lis)
	c := dial(t, lis.Addr().String())
	if err := c.CreateTable("events", eventsSchema(), 0); err != nil {
		t.Fatal(err)
	}
	tab, err := c.OpenTable("events")
	if err != nil {
		t.Fatal(err)
	}
	tab.Insert(eventRow(1, 1, time.Now().UnixMicro(), 7, "persisted"))
	if err := tab.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tab.FlushTable(); err != nil {
		t.Fatal(err)
	}
	s1.Close()

	s2, err := server.New(server.Options{Root: root, Core: copts, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	lis2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s2.Serve(lis2)
	c2 := dial(t, lis2.Addr().String())
	tab2, err := c2.OpenTable("events")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := tab2.Query(NewQuery()).All()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][3].Int != 7 {
		t.Fatalf("restart recovery: %v", rows)
	}
}
