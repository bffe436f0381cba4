// Public API surface tests: everything a downstream user touches, driven
// through the littletable package itself.
package littletable_test

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"littletable"
)

func apiSchema(t *testing.T) *littletable.Schema {
	t.Helper()
	return littletable.MustSchema([]littletable.Column{
		{Name: "network", Type: littletable.Int64},
		{Name: "device", Type: littletable.Int64},
		{Name: "ts", Type: littletable.Timestamp},
		{Name: "rate", Type: littletable.Double},
	}, []string{"network", "device", "ts"})
}

func TestEmbeddedTableLifecycle(t *testing.T) {
	dir := t.TempDir()
	tab, err := littletable.CreateTable(dir, "usage", apiSchema(t), littletable.Day, littletable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	now := littletable.Now()
	for i := int64(0); i < 20; i++ {
		err := tab.Insert([]littletable.Row{{
			littletable.NewInt64(i % 2),
			littletable.NewInt64(i),
			littletable.NewTimestamp(now - i*littletable.Minute),
			littletable.NewDouble(float64(i)),
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	q := littletable.NewQuery()
	q.Lower = []littletable.Value{littletable.NewInt64(1)}
	q.Upper = q.Lower
	rows, err := tab.QueryAll(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("prefix query: %d rows", len(rows))
	}
	latest, found, err := tab.LatestRow([]littletable.Value{
		littletable.NewInt64(0), littletable.NewInt64(0),
	})
	if err != nil || !found || latest[3].Float != 0 {
		t.Fatalf("LatestRow: %v %v %v", latest, found, err)
	}
	if err := tab.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := tab.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen through the public API.
	tab2, err := littletable.OpenTable(dir, "usage", littletable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer tab2.Close()
	rows, err = tab2.QueryAll(littletable.NewQuery())
	if err != nil || len(rows) != 20 {
		t.Fatalf("reopen: %d rows, %v", len(rows), err)
	}
	// Bulk delete through the public API.
	dq := littletable.NewQuery()
	dq.Lower = []littletable.Value{littletable.NewInt64(0)}
	dq.Upper = dq.Lower
	n, err := tab2.DeleteWhere(dq, nil)
	if err != nil || n != 10 {
		t.Fatalf("DeleteWhere: %d %v", n, err)
	}
}

func TestServerClientSQLRoundTrip(t *testing.T) {
	srv, err := littletable.NewServer(littletable.ServerOptions{Root: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	c, err := littletable.Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateTable("usage", apiSchema(t), 0); err != nil {
		t.Fatal(err)
	}
	tab, err := c.OpenTable("usage")
	if err != nil {
		t.Fatal(err)
	}
	now := littletable.Now()
	for i := int64(0); i < 8; i++ {
		if err := tab.Insert(littletable.Row{
			littletable.NewInt64(1), littletable.NewInt64(i),
			littletable.NewTimestamp(now), littletable.NewDouble(1),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.Flush(); err != nil {
		t.Fatal(err)
	}
	cq := littletable.NewQuery()
	rows, err := tab.Query(cq).All()
	if err != nil || len(rows) != 8 {
		t.Fatalf("wire query: %d rows, %v", len(rows), err)
	}

	// SQL over both backends.
	for _, eng := range []*littletable.SQLEngine{
		littletable.NewSQLOverServer(srv),
		littletable.NewSQLOverClient(c),
	} {
		res, err := eng.Exec("SELECT COUNT(*) FROM usage")
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows[0][0].Int != 8 {
			t.Fatalf("SQL count: %v", res.Rows)
		}
	}
}

// TestResilientClientSurface drives the PR 6 wire-resilience API through
// the public facade: explicit pool options, graceful server drain, and
// the typed disconnect the client reports afterwards.
func TestResilientClientSurface(t *testing.T) {
	srv, err := littletable.NewServer(littletable.ServerOptions{Root: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c, err := littletable.DialClient(ctx, lis.Addr().String(), littletable.ClientOptions{
		PoolSize:    2,
		DialTimeout: 2 * time.Second,
		MaxRetries:  -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateTable("usage", apiSchema(t), 0); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Dials.Load() == 0 {
		t.Error("ClientStats recorded no dials")
	}

	// Graceful drain via the facade, then a typed failure from the client.
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := c.ListTables(); !errors.Is(err, littletable.ErrClientDisconnected) {
		t.Fatalf("after drain: %v, want ErrClientDisconnected", err)
	}
}
