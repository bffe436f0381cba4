package server

import (
	"bytes"
	"io"
	"testing"
	"time"

	"littletable/internal/core"
	"littletable/internal/ltval"
	"littletable/internal/race"
	"littletable/internal/schema"
	"littletable/internal/wire"
)

// discardRW is a connection nobody reads: requests never arrive, responses
// vanish.
type discardRW struct{}

func (discardRW) Read([]byte) (int, error)    { return 0, io.EOF }
func (discardRW) Write(p []byte) (int, error) { return len(p), nil }

// TestHandleQueryAllocatesPerPageNotPerRow is the tier-1 guard on the
// server's row hand-off: rows go from the iterator's reused buffer straight
// into the response payload, so serving a 1,000-row page allocates the
// payload (a logarithmic number of growth steps) and a fixed set of query
// objects — nothing per row.
func TestHandleQueryAllocatesPerPageNotPerRow(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	s, err := New(Options{
		Root: t.TempDir(), MaintenanceInterval: time.Hour, Logf: t.Logf,
		Core: core.Options{BlockCacheBytes: 8 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sc := schema.MustNew([]schema.Column{
		{Name: "k", Type: ltval.Int64},
		{Name: "ts", Type: ltval.Timestamp},
		{Name: "tag", Type: ltval.String},
	}, []string{"k", "ts"})
	tab, err := s.CreateTable("t", sc, 0)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 1000
	batch := make([]schema.Row, rows)
	for i := range batch {
		batch[i] = schema.Row{ltval.NewInt64(int64(i / 10)), ltval.NewTimestamp(int64(1_700_000_000_000_000 + i)), ltval.NewString("tag")}
	}
	if err := tab.Insert(batch); err != nil {
		t.Fatal(err)
	}
	if err := tab.FlushAll(); err != nil {
		t.Fatal(err)
	}
	wc := wire.NewConn(discardRW{})
	req := encode(&wire.Query{Table: "t", Query: core.Query{LowerInc: true, UpperInc: true, MinTs: -1 << 62, MaxTs: 1 << 62}})
	var out bytes.Buffer
	if err := s.handleQuery(wire.NewConn(&out), req); err != nil {
		t.Fatal(err)
	}
	if _, payload, err := wire.NewConn(&out).ReadMsg(); err != nil {
		t.Fatal(err)
	} else if m, err := wire.DecodeRows(payload, sc); err != nil || len(m.Rows) != rows {
		t.Fatalf("the query under test returned %d rows (%v), want %d", len(m.Rows), err, rows)
	}
	perPage := testing.AllocsPerRun(20, func() {
		if err := s.handleQuery(wc, req); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("handleQuery: %.0f allocations per %d-row page", perPage, rows)
	if perPage > rows/10 {
		t.Errorf("handleQuery allocates %.0f objects per %d-row page: something is allocated per row", perPage, rows)
	}
}

// TestPageLimitReachesEngine: a query's page limit reaches the engine, so
// a Limit 100 query over 5,000 memtable rows under one key prefix walks
// about a page of them, not every row in its box. The page loop still
// reads one row past the page to set the more-available flag.
func TestPageLimitReachesEngine(t *testing.T) {
	s, err := New(Options{Root: t.TempDir(), MaintenanceInterval: time.Hour, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sc := schema.MustNew([]schema.Column{
		{Name: "k", Type: ltval.Int64},
		{Name: "ts", Type: ltval.Timestamp},
	}, []string{"k", "ts"})
	tab, err := s.CreateTable("t", sc, 0)
	if err != nil {
		t.Fatal(err)
	}
	const rows, limit = 5000, 100
	batch := make([]schema.Row, rows)
	for i := range batch {
		batch[i] = schema.Row{ltval.NewInt64(1), ltval.NewTimestamp(int64(1_700_000_000_000_000 + i))}
	}
	if err := tab.Insert(batch); err != nil {
		t.Fatal(err)
	}
	prefix := []ltval.Value{ltval.NewInt64(1)}
	req := encode(&wire.Query{Table: "t", Query: core.Query{
		Lower: prefix, LowerInc: true, Upper: prefix, UpperInc: true,
		MinTs: -1 << 62, MaxTs: 1 << 62, Descending: true, Limit: limit,
	}})
	before := tab.Stats().Snapshot().RowsScanned
	var out bytes.Buffer
	if err := s.handleQuery(wire.NewConn(&out), req); err != nil {
		t.Fatal(err)
	}
	_, payload, err := wire.NewConn(&out).ReadMsg()
	if err != nil {
		t.Fatal(err)
	}
	m, err := wire.DecodeRows(payload, sc)
	if err != nil || len(m.Rows) != limit || !m.More {
		t.Fatalf("got %d rows, more %v (%v); want %d and more", len(m.Rows), m.More, err, limit)
	}
	if scanned := tab.Stats().Snapshot().RowsScanned - before; scanned > 2*limit {
		t.Errorf("a Limit %d query scanned %d of %d memtable rows", limit, scanned, rows)
	}
}
