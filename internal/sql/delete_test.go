package sql

import (
	"net"
	"strings"
	"testing"
	"time"

	"littletable/internal/client"
	"littletable/internal/clock"
	"littletable/internal/core"
	"littletable/internal/server"
)

func TestDeleteByKeyPrefix(t *testing.T) {
	e, clk := newEngine(t)
	setupUsage(t, e, clk)
	res := mustExec(t, e, "DELETE FROM usage WHERE network = 1 AND device = 2")
	if res.RowsAffected != 5 {
		t.Fatalf("deleted %d, want 5", res.RowsAffected)
	}
	cnt := mustExec(t, e, "SELECT COUNT(*) FROM usage")
	if cnt.Rows[0][0].Int != 25 {
		t.Fatalf("remaining %d, want 25", cnt.Rows[0][0].Int)
	}
	cnt = mustExec(t, e, "SELECT COUNT(*) FROM usage WHERE network = 1 AND device = 2")
	if cnt.Rows[0][0].Int != 0 {
		t.Fatal("deleted rows still visible")
	}
}

func TestDeleteByTimeRange(t *testing.T) {
	e, clk := newEngine(t)
	setupUsage(t, e, clk)
	res := mustExec(t, e, "DELETE FROM usage WHERE ts < NOW() - 2 m")
	if res.RowsAffected != 12 { // minutes 3 and 4 of 5, for 6 (network,device) pairs
		t.Fatalf("deleted %d, want 12", res.RowsAffected)
	}
}

func TestDeleteWithResidualInProcess(t *testing.T) {
	e, clk := newEngine(t)
	setupUsage(t, e, clk)
	// `bytes` is a value column: the box can't express it, so the residual
	// filter path runs (in-process backend only).
	res := mustExec(t, e, "DELETE FROM usage WHERE bytes = 1000")
	if res.RowsAffected != 2 { // one per network
		t.Fatalf("deleted %d, want 2", res.RowsAffected)
	}
}

func TestDeleteRequiresWhere(t *testing.T) {
	e, clk := newEngine(t)
	setupUsage(t, e, clk)
	if _, err := e.Exec("DELETE FROM usage"); err == nil {
		t.Fatal("unconditioned DELETE accepted")
	}
}

func TestDeleteOverWire(t *testing.T) {
	clk := clock.NewFake(1_782_018_420 * clock.Second)
	s, err := server.New(server.Options{
		Root:                t.TempDir(),
		Core:                core.Options{Clock: clk},
		MaintenanceInterval: 50 * time.Millisecond,
		Logf:                func(string, ...interface{}) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(lis)

	// Populate in-process (fake clock), then delete over the wire.
	se := NewEngine(&ServerBackend{S: s})
	setupUsage(t, se, clk)

	c, err := client.Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ce := NewEngine(&ClientBackend{C: c})
	res, err := ce.Exec("DELETE FROM usage WHERE network = 2")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 15 {
		t.Fatalf("wire delete removed %d, want 15", res.RowsAffected)
	}
	// Residual predicates are rejected over the wire with a clear error.
	_, err = ce.Exec("DELETE FROM usage WHERE bytes = 1000")
	if err == nil || !strings.Contains(err.Error(), "over the wire") {
		t.Fatalf("residual wire delete: %v", err)
	}
	// Other wire statements still work on the same engine.
	cnt, err := ce.Exec("SELECT COUNT(*) FROM usage")
	if err != nil {
		t.Fatal(err)
	}
	if cnt.Rows[0][0].Int != 15 {
		t.Fatalf("post-delete count over wire: %d", cnt.Rows[0][0].Int)
	}
}

// TestSQLOverWireParity runs a representative statement set through both
// backends and compares results, pinning the two deployments together.
func TestSQLOverWireParity(t *testing.T) {
	clk := clock.NewFake(1_782_018_420 * clock.Second)
	s, err := server.New(server.Options{
		Root:                t.TempDir(),
		Core:                core.Options{Clock: clk},
		MaintenanceInterval: 50 * time.Millisecond,
		Logf:                func(string, ...interface{}) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(lis)
	c, err := client.Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	se := NewEngine(&ServerBackend{S: s})
	ce := NewEngine(&ClientBackend{C: c})
	setupUsage(t, se, clk)

	// DDL over the wire backend: create, flush, alter, drop.
	mustExecDDL := func(q string) {
		t.Helper()
		if _, err := ce.Exec(q); err != nil {
			t.Fatalf("%s over wire: %v", q, err)
		}
	}
	mustExecDDL("CREATE TABLE scratch (k int64, ts timestamp, PRIMARY KEY (k, ts)) TTL 1 w")
	mustExecDDL("INSERT INTO scratch (k) VALUES (1)")
	mustExecDDL("FLUSH TABLE scratch")
	mustExecDDL("ALTER TABLE scratch ADD COLUMN note string DEFAULT 'n'")
	mustExecDDL("ALTER TABLE scratch SET TTL 2 w")
	mustExecDDL("DROP TABLE scratch")

	queries := []string{
		"SELECT COUNT(*) FROM usage",
		"SELECT device, SUM(bytes) FROM usage WHERE network = 1 GROUP BY device",
		"SELECT network, device FROM usage ORDER BY network DESC LIMIT 4",
		"SELECT LATEST FROM usage WHERE network = 1 AND device = 3",
		"SHOW TABLES",
		"DESCRIBE usage",
	}
	for _, q := range queries {
		a := mustExec(t, se, q)
		b, err := ce.Exec(q)
		if err != nil {
			t.Fatalf("%s over wire: %v", q, err)
		}
		if len(a.Rows) != len(b.Rows) {
			t.Fatalf("%s: %d vs %d rows", q, len(a.Rows), len(b.Rows))
		}
		for i := range a.Rows {
			for j := range a.Rows[i] {
				if a.Rows[i][j].Compare(b.Rows[i][j]) != 0 {
					t.Fatalf("%s: row %d col %d differs: %v vs %v",
						q, i, j, a.Rows[i][j], b.Rows[i][j])
				}
			}
		}
	}

	// SHOW STATS lists the table's full metric list on both backends: the
	// same names in the same order (values move between the two calls),
	// still including the eleven the statement printed when each backend
	// hand-picked its rows.
	a := mustExec(t, se, "SHOW STATS usage")
	b := mustExec(t, ce, "SHOW STATS usage")
	if len(a.Rows) != len(b.Rows) || len(a.Rows) < 50 {
		t.Fatalf("SHOW STATS: %d rows in-process, %d over the wire", len(a.Rows), len(b.Rows))
	}
	names := make(map[string]bool)
	for i := range a.Rows {
		if a.Rows[i][0].Compare(b.Rows[i][0]) != 0 {
			t.Errorf("SHOW STATS row %d: %v in-process, %v over the wire", i, a.Rows[i][0], b.Rows[i][0])
		}
		names[string(a.Rows[i][0].Bytes)] = true
	}
	for _, n := range []string{
		"rows_inserted", "rows_returned", "rows_scanned", "queries", "disk_tablets", "mem_tablets",
		"disk_bytes", "row_estimate", "merges", "bytes_flushed", "bytes_merged",
	} {
		if !names[n] {
			t.Errorf("SHOW STATS no longer lists %s", n)
		}
	}
}

func TestShowStats(t *testing.T) {
	e, clk := newEngine(t)
	setupUsage(t, e, clk)
	mustExec(t, e, "FLUSH TABLE usage")
	mustExec(t, e, "SELECT COUNT(*) FROM usage")
	res := mustExec(t, e, "SHOW STATS usage")
	if len(res.Columns) != 2 || res.Columns[0] != "metric" {
		t.Fatalf("columns: %v", res.Columns)
	}
	byName := map[string]int64{}
	for _, r := range res.Rows {
		byName[string(r[0].Bytes)] = r[1].Int
	}
	if byName["rows_inserted"] != 30 {
		t.Errorf("rows_inserted = %d", byName["rows_inserted"])
	}
	if byName["disk_tablets"] == 0 {
		t.Error("disk_tablets = 0 after flush")
	}
	if byName["row_estimate"] != 30 {
		t.Errorf("row_estimate = %d", byName["row_estimate"])
	}
	if _, err := e.Exec("SHOW STATS missing_table"); err == nil {
		t.Error("SHOW STATS on missing table succeeded")
	}
}
