package server

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"littletable/internal/clock"
	"littletable/internal/core"
	"littletable/internal/ltval"
	"littletable/internal/schema"
	"littletable/internal/vfs"
)

func testSchema() *schema.Schema {
	return schema.MustNew([]schema.Column{
		{Name: "k", Type: ltval.Int64},
		{Name: "ts", Type: ltval.Timestamp},
	}, []string{"k", "ts"})
}

func newServer(t *testing.T, root string) *Server {
	t.Helper()
	s, err := New(Options{
		Root:                root,
		MaintenanceInterval: 10 * time.Millisecond,
		Logf:                t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestTableNameValidation(t *testing.T) {
	s := newServer(t, t.TempDir())
	bad := []string{"", "../etc", "a/b", "has space", "0starts_with_digit", ".hidden",
		"way_too_long_" + string(make([]byte, 140))}
	for _, name := range bad {
		if _, err := s.CreateTable(name, testSchema(), 0); !errors.Is(err, ErrBadTableName) {
			t.Errorf("name %q: %v", name, err)
		}
	}
	good := []string{"usage", "_private", "Events2", "a"}
	for _, name := range good {
		if _, err := s.CreateTable(name, testSchema(), 0); err != nil {
			t.Errorf("name %q rejected: %v", name, err)
		}
	}
}

func TestCreateOpenDropLifecycle(t *testing.T) {
	s := newServer(t, t.TempDir())
	if _, err := s.CreateTable("a", testSchema(), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTable("a", testSchema(), 0); err == nil {
		t.Error("duplicate create accepted")
	}
	if _, err := s.Table("a"); err != nil {
		t.Error(err)
	}
	if _, err := s.Table("missing"); !errors.Is(err, ErrNoSuchTable) {
		t.Errorf("missing table: %v", err)
	}
	if err := s.DropTable("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.DropTable("a"); !errors.Is(err, ErrNoSuchTable) {
		t.Errorf("double drop: %v", err)
	}
	if len(s.TableNames()) != 0 {
		t.Error("table still listed")
	}
}

func TestMaintenanceFlushesAgedTablets(t *testing.T) {
	// A real-clock server with a tiny flush age: the maintenance loop must
	// flush aged memtables without any explicit call.
	root := t.TempDir()
	s, err := New(Options{
		Root: root,
		Core: core.Options{
			Clock:    clock.Real{},
			FlushAge: (50 * time.Millisecond).Microseconds(),
		},
		MaintenanceInterval: 10 * time.Millisecond,
		Logf:                t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tab, err := s.CreateTable("t", testSchema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	now := clock.Real{}.Now()
	if err := tab.Insert([]schema.Row{{ltval.NewInt64(1), ltval.NewTimestamp(now)}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for tab.DiskTabletCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("maintenance never flushed the aged memtable")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestCloseIsIdempotentAndTerminal(t *testing.T) {
	s := newServer(t, t.TempDir())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
	if _, err := s.CreateTable("x", testSchema(), 0); !errors.Is(err, ErrClosed) {
		t.Errorf("create after close: %v", err)
	}
	if _, err := s.Table("x"); !errors.Is(err, ErrClosed) {
		t.Errorf("table after close: %v", err)
	}
}

func TestFlushAllTables(t *testing.T) {
	s := newServer(t, t.TempDir())
	tab, err := s.CreateTable("t", testSchema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	now := clock.Real{}.Now()
	tab.Insert([]schema.Row{{ltval.NewInt64(1), ltval.NewTimestamp(now)}})
	if err := s.FlushAllTables(); err != nil {
		t.Fatal(err)
	}
	if tab.DiskTabletCount() != 1 {
		t.Error("FlushAllTables left memtables")
	}
}

func TestNonTableDirectoriesIgnoredOnOpen(t *testing.T) {
	root := t.TempDir()
	s1 := newServer(t, root)
	if _, err := s1.CreateTable("real", testSchema(), 0); err != nil {
		t.Fatal(err)
	}
	s1.Close()
	// Unrelated junk in the root must not break reopen.
	if err := writeJunk(root); err != nil {
		t.Fatal(err)
	}
	s2 := newServer(t, root)
	names := s2.TableNames()
	if len(names) != 1 || names[0] != "real" {
		t.Fatalf("recovered tables: %v", names)
	}
}

func writeJunk(root string) error {
	if err := os.Mkdir(root+"/.git", 0o755); err != nil {
		return err
	}
	return os.WriteFile(root+"/README", []byte("not a table"), 0o644)
}

func TestMetricsEndpoint(t *testing.T) {
	s := newServer(t, t.TempDir())
	tab, err := s.CreateTable("usage", testSchema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	now := clock.Real{}.Now()
	tab.Insert([]schema.Row{{ltval.NewInt64(1), ltval.NewTimestamp(now)}})
	tab.FlushAll()
	// A disk-hitting query so the read-path counters have flowed.
	if _, err := tab.QueryAll(core.NewQuery()); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(s.MetricsHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		`littletable_rows_inserted_total{table="usage"} 1`,
		`littletable_disk_tablets{table="usage"} 1`,
		"# TYPE littletable_disk_bytes gauge",
		`littletable_blocks_read_total{table="usage"} 1`,
		`littletable_prefetch_hits_total{table="usage"}`,
		`littletable_parallel_opens_total{table="usage"}`,
		`littletable_block_cache_hits_total{table="usage"} 0`,
		`littletable_block_cache_misses_total{table="usage"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
	// Health check.
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()
}

// TestMatchTables pins the table list scatter and agg queries share:
// prefix-matched, sorted, and truncated only when the cap is exceeded.
func TestMatchTables(t *testing.T) {
	s := newServer(t, t.TempDir())
	for _, n := range []string{"cust_c", "other", "cust_a", "cust_b"} {
		if _, err := s.CreateTable(n, testSchema(), 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		max       uint32
		want      string
		truncated bool
	}{
		{0, "cust_a,cust_b,cust_c", false},
		{3, "cust_a,cust_b,cust_c", false},
		{2, "cust_a,cust_b", true},
	} {
		names, truncated := s.matchTables("cust_", tc.max)
		if got := strings.Join(names, ","); got != tc.want || truncated != tc.truncated {
			t.Errorf("max %d: got %s truncated=%v, want %s truncated=%v", tc.max, got, truncated, tc.want, tc.truncated)
		}
	}
}

// TestCreateTableDoesNotBlockLookups pins that a table's creation I/O runs
// outside the lock every request takes to find its table: lookups proceed
// while a create is parked inside its descriptor commit, and concurrent
// creates of one name still admit exactly one.
func TestCreateTableDoesNotBlockLookups(t *testing.T) {
	fs := vfs.NewMem()
	s, err := New(Options{Root: "/data", Core: core.Options{FS: fs}, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if _, err := s.CreateTable("a", testSchema(), 0); err != nil {
		t.Fatal(err)
	}
	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	fs.SetBarrierHook(func(op, path string) {
		if strings.Contains(path, "slow") {
			once.Do(func() { close(parked); <-release })
		}
	})
	const creators = 4
	errs := make(chan error, creators)
	for i := 0; i < creators; i++ {
		go func() {
			_, err := s.CreateTable("slow", testSchema(), 0)
			errs <- err
		}()
	}
	<-parked
	looked := make(chan struct{})
	go func() {
		s.Table("a")
		s.TableNames()
		close(looked)
	}()
	select {
	case <-looked:
	case <-time.After(5 * time.Second):
		close(release)
		t.Fatal("table lookups waited for another table's creation I/O")
	}
	close(release)
	created := 0
	for i := 0; i < creators; i++ {
		if err := <-errs; err == nil {
			created++
		}
	}
	if created != 1 {
		t.Fatalf("%d of %d concurrent creates of one name succeeded, want 1", created, creators)
	}
}
