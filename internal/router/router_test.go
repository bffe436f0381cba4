// Package router's tests run the full topology in-process: real shard
// servers, a real router, and the ordinary client dialed at the router —
// every request crosses two real TCP hops.
package router

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"littletable/internal/client"
	"littletable/internal/clock"
	"littletable/internal/core"
	"littletable/internal/ltval"
	"littletable/internal/schema"
	"littletable/internal/server"
	"littletable/internal/vfs"
	"littletable/internal/wire"
)

// encode is wire.Encode for a message that carries no schema, which
// cannot fail to encode.
func encode(m wire.Message) []byte {
	p, err := wire.Encode(m)
	if err != nil {
		panic(err)
	}
	return p
}

func testSchema() *schema.Schema {
	return schema.MustNew([]schema.Column{
		{Name: "k", Type: ltval.Int64},
		{Name: "ts", Type: ltval.Timestamp},
	}, []string{"k", "ts"})
}

func row(k, ts int64) schema.Row {
	return schema.Row{ltval.NewInt64(k), ltval.NewTimestamp(ts)}
}

type testShard struct {
	srv  *server.Server
	addr string
	root string
}

func startShard(t *testing.T) *testShard {
	t.Helper()
	return startShardAt(t, t.TempDir(), "127.0.0.1:0")
}

func startShardAt(t *testing.T, root, addr string) *testShard {
	t.Helper()
	s, err := server.New(server.Options{
		Root:                root,
		Core:                core.Options{Clock: clock.Real{}},
		MaintenanceInterval: 50 * time.Millisecond,
		Logf:                func(string, ...interface{}) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	var lis net.Listener
	deadline := time.Now().Add(5 * time.Second)
	for {
		lis, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("listen %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	go s.Serve(lis)
	sh := &testShard{srv: s, addr: lis.Addr().String(), root: root}
	t.Cleanup(func() { s.Close() })
	return sh
}

func startRouter(t *testing.T, opts Options, shards ...*testShard) (*Router, string) {
	t.Helper()
	for _, sh := range shards {
		opts.Shards = append(opts.Shards, sh.addr)
	}
	if opts.ProbeInterval == 0 {
		opts.ProbeInterval = 50 * time.Millisecond
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...interface{}) {}
	}
	r, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go r.Serve(lis)
	t.Cleanup(func() { r.Close() })
	return r, lis.Addr().String()
}

func fastClient(t *testing.T, addr string) *client.Client {
	t.Helper()
	c, err := client.DialContext(context.Background(), addr, client.Options{
		DialTimeout:    2 * time.Second,
		RetryBaseDelay: time.Millisecond,
		RetryMaxDelay:  10 * time.Millisecond,
		JitterSeed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestRouterEndToEnd(t *testing.T) {
	s1, s2, s3 := startShard(t), startShard(t), startShard(t)
	r, addr := startRouter(t, Options{}, s1, s2, s3)
	c := fastClient(t, addr)

	// Enough tables that the ring spreads them across more than one shard.
	const tables = 12
	for i := 0; i < tables; i++ {
		name := fmt.Sprintf("cust%d_usage", i)
		if err := c.CreateTable(name, testSchema(), 0); err != nil {
			t.Fatal(err)
		}
		tab, err := c.OpenTable(name)
		if err != nil {
			t.Fatal(err)
		}
		for k := int64(0); k < 10; k++ {
			if err := tab.InsertNow([]schema.Row{row(k, 1000+k)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Every table reads back through the router.
	for i := 0; i < tables; i++ {
		name := fmt.Sprintf("cust%d_usage", i)
		tab, err := c.OpenTable(name)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := tab.Query(client.NewQuery()).All()
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 10 {
			t.Fatalf("table %s: %d rows through router, want 10", name, len(rows))
		}
	}
	// The ring actually sharded: no single shard holds everything.
	placedOn := 0
	for _, sh := range []*testShard{s1, s2, s3} {
		if n := len(sh.srv.TableNames()); n > 0 {
			placedOn++
			if n == tables {
				t.Fatalf("all %d tables on one shard; ring not spreading", tables)
			}
		}
	}
	if placedOn < 2 {
		t.Fatalf("tables placed on %d shards, want >= 2", placedOn)
	}
	// Tables land where the router says they do.
	for i := 0; i < tables; i++ {
		name := fmt.Sprintf("cust%d_usage", i)
		want, _ := r.Placement(name)
		found := ""
		for _, sh := range []*testShard{s1, s2, s3} {
			for _, n := range sh.srv.TableNames() {
				if n == name {
					found = sh.addr
				}
			}
		}
		if found != want {
			t.Errorf("table %s on %s, router says %s", name, found, want)
		}
	}
	// ListTables merges all shards.
	names, err := c.ListTables()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != tables {
		t.Fatalf("merged ListTables has %d names, want %d", len(names), tables)
	}
	if r.Stats().RoutedInserts.Load() == 0 || r.Stats().RoutedQueries.Load() == 0 {
		t.Error("router counters not advancing")
	}
}

func TestRouterScatterQuery(t *testing.T) {
	s1, s2, s3 := startShard(t), startShard(t), startShard(t)
	_, addr := startRouter(t, Options{}, s1, s2, s3)
	c := fastClient(t, addr)
	total := 0
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("acme_t%d", i)
		if err := c.CreateTable(name, testSchema(), 0); err != nil {
			t.Fatal(err)
		}
		tab, err := c.OpenTable(name)
		if err != nil {
			t.Fatal(err)
		}
		for k := int64(0); k <= int64(i); k++ {
			if err := tab.InsertNow([]schema.Row{row(k, 1000)}); err != nil {
				t.Fatal(err)
			}
			total++
		}
	}
	res, err := c.ScatterQuery(context.Background(), &wire.ScatterQuery{Prefix: "acme_", Query: core.Query{MaxTs: core.TsMax}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != 8 {
		t.Fatalf("scatter returned %d tables, want 8", len(res.Tables))
	}
	got := 0
	for i, sec := range res.Tables {
		got += len(sec.Rows)
		if i > 0 && sec.Table <= res.Tables[i-1].Table {
			t.Errorf("sections unsorted: %q after %q", sec.Table, res.Tables[i-1].Table)
		}
	}
	if got != total {
		t.Fatalf("scatter returned %d rows, want %d", got, total)
	}
	// MaxTables truncates the merged result.
	res, err = c.ScatterQuery(context.Background(), &wire.ScatterQuery{Prefix: "acme_", Query: core.Query{MaxTs: core.TsMax}, MaxTables: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || len(res.Tables) != 3 {
		t.Fatalf("truncation: got %d tables truncated=%v", len(res.Tables), res.Truncated)
	}
}

func TestRouterRateLimit(t *testing.T) {
	s1 := startShard(t)
	r, addr := startRouter(t, Options{RateLimit: 5, RateBurst: 3}, s1)
	c, err := client.DialContext(context.Background(), addr, client.Options{
		MaxRetries: -1, JitterSeed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateTable("acme_usage", testSchema(), 0); err != nil {
		t.Fatal(err)
	}
	tab, err := c.OpenTable("acme_usage")
	if err != nil {
		t.Fatal(err)
	}
	// Burn the burst, then the refusal must be the typed retryable one.
	var limited bool
	for i := int64(0); i < 10; i++ {
		err := tab.InsertNow([]schema.Row{row(i, 1000)})
		if err == nil {
			continue
		}
		if !errors.Is(err, client.ErrOverloaded) {
			t.Fatalf("rate-limit refusal is %v, want ErrOverloaded", err)
		}
		limited = true
	}
	if !limited {
		t.Fatal("10 instant inserts with burst 3 never rate-limited")
	}
	if r.Stats().RateLimited.Load() == 0 {
		t.Error("RateLimited counter not advancing")
	}
	// A different tenant has its own bucket.
	if err := c.CreateTable("other_usage", testSchema(), 0); err != nil {
		t.Fatalf("second tenant blocked by first tenant's bucket: %v", err)
	}
}

func TestRouterShardDownFailFast(t *testing.T) {
	s1, s2 := startShard(t), startShard(t)
	r, addr := startRouter(t, Options{ProbeInterval: time.Hour}, s1, s2) // probes driven by hand
	c, err := client.DialContext(context.Background(), addr, client.Options{
		MaxRetries: -1, JitterSeed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Find a table name on each shard.
	tableOn := map[string]string{}
	for i := 0; len(tableOn) < 2; i++ {
		name := fmt.Sprintf("t%d", i)
		a, _ := r.Placement(name)
		if _, ok := tableOn[a]; !ok {
			tableOn[a] = name
			if err := c.CreateTable(name, testSchema(), 0); err != nil {
				t.Fatal(err)
			}
		}
	}

	s1.srv.Close()
	for i := 0; i < probeFailThreshold+1; i++ {
		for _, sh := range r.shards {
			r.probeOnce(sh)
		}
	}
	if got := r.shards[0].state.Load(); got != shardDown {
		t.Fatalf("shard 0 state %d after failed probes, want down", got)
	}

	// Requests for the dead shard's table fail fast with the retryable
	// refusal; the live shard's table still serves.
	deadTable, liveTable := tableOn[s1.addr], tableOn[s2.addr]
	start := time.Now()
	_, _, err = c.Do(context.Background(), wire.MsgGetSchema, encode(&wire.TableName{Name: deadTable}))
	if !errors.Is(err, client.ErrOverloaded) {
		t.Fatalf("dead-shard request: %v, want ErrOverloaded", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("fail-fast took %v", d)
	}
	if _, _, err := c.Do(context.Background(), wire.MsgGetSchema, encode(&wire.TableName{Name: liveTable})); err != nil {
		t.Fatalf("live shard request failed: %v", err)
	}
	if r.Stats().ShardDown.Load() != 1 {
		t.Errorf("ShardDown = %d, want 1", r.Stats().ShardDown.Load())
	}

	// Revive at the same address: probes heal the shard and routing resumes.
	startShardAt(t, t.TempDir(), s1.addr)
	deadline := time.Now().Add(5 * time.Second)
	for r.shards[0].state.Load() != shardUp {
		for _, sh := range r.shards {
			r.probeOnce(sh)
		}
		if time.Now().After(deadline) {
			t.Fatal("shard never probed back up")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := c.CreateTable(deadTable+"x", testSchema(), 0); err != nil {
		t.Fatalf("request after revival: %v", err)
	}
}

func TestMigrateMovesTable(t *testing.T) {
	s1, s2, s3 := startShard(t), startShard(t), startShard(t)
	root := t.TempDir()
	r, addr := startRouter(t, Options{Root: root}, s1, s2, s3)
	c := fastClient(t, addr)

	const table = "acme_usage"
	if err := c.CreateTable(table, testSchema(), 0); err != nil {
		t.Fatal(err)
	}
	tab, err := c.OpenTable(table)
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 200; k++ {
		if err := tab.Insert(row(k, 1000+k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.Flush(); err != nil {
		t.Fatal(err)
	}

	srcAddr, _ := r.Placement(table)
	var target *testShard
	for _, sh := range []*testShard{s1, s2, s3} {
		if sh.addr != srcAddr {
			target = sh
			break
		}
	}
	// Drive the migration through the wire, as an operator tool would.
	mt, _, err := c.Do(context.Background(), wire.MsgMigrateTable,
		encode(&wire.MigrateTable{Table: table, TargetAddr: target.addr}))
	if err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if mt != wire.MsgOK {
		t.Fatalf("migrate response type %d", mt)
	}

	// Placement flipped and persisted; data serves from the target.
	if got, overridden := r.Placement(table); got != target.addr || !overridden {
		t.Fatalf("placement after migrate: %s overridden=%v", got, overridden)
	}
	rows, err := tab.Query(client.NewQuery()).All()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 200 {
		t.Fatalf("after migrate: %d rows, want 200", len(rows))
	}
	found := false
	for _, n := range target.srv.TableNames() {
		if n == table {
			found = true
		}
	}
	if !found {
		t.Fatal("table absent from target shard")
	}
	for _, sh := range []*testShard{s1, s2, s3} {
		if sh.addr == srcAddr {
			for _, n := range sh.srv.TableNames() {
				if n == table {
					t.Fatal("table still present on source shard")
				}
			}
		}
	}
	if r.Stats().MigrationsCompleted.Load() != 1 || r.Stats().MigratedBytes.Load() == 0 {
		t.Errorf("migration counters: completed=%d bytes=%d",
			r.Stats().MigrationsCompleted.Load(), r.Stats().MigratedBytes.Load())
	}

	// Writes keep landing on the new home.
	if err := tab.InsertNow([]schema.Row{row(999, 5000)}); err != nil {
		t.Fatal(err)
	}

	// A fresh router with the same root loads the override.
	r2, err := New(Options{Shards: []string{s1.addr, s2.addr, s3.addr}, Root: root,
		Logf: func(string, ...interface{}) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if got, overridden := r2.Placement(table); got != target.addr || !overridden {
		t.Fatalf("reloaded placement: %s overridden=%v", got, overridden)
	}
}

// TestMigrateUnderConcurrentInserts is the live-migration contract:
// writers keep inserting through the router while the table moves, and
// every acknowledged insert is present on the new shard afterwards.
func TestMigrateUnderConcurrentInserts(t *testing.T) {
	s1, s2 := startShard(t), startShard(t)
	r, addr := startRouter(t, Options{}, s1, s2)
	c := fastClient(t, addr)

	const table = "acme_usage"
	if err := c.CreateTable(table, testSchema(), 0); err != nil {
		t.Fatal(err)
	}
	srcAddr, _ := r.Placement(table)
	target := s1
	if srcAddr == s1.addr {
		target = s2
	}

	const writers = 3
	var mu sync.Mutex
	acked := map[int64]bool{}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int64) {
			defer wg.Done()
			wc := fastClient(t, addr)
			tab, err := wc.OpenTable(table)
			if err != nil {
				t.Error(err)
				return
			}
			for seq := int64(0); ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				k := w*1_000_000 + seq
				if err := tab.InsertNow([]schema.Row{row(k, 1000+seq)}); err == nil {
					mu.Lock()
					acked[k] = true
					mu.Unlock()
				}
			}
		}(int64(w))
	}
	time.Sleep(100 * time.Millisecond) // build up rows and in-flight traffic
	if err := r.Migrate(context.Background(), table, target.addr); err != nil {
		t.Fatalf("migrate under load: %v", err)
	}
	time.Sleep(50 * time.Millisecond) // writers keep going against the new home
	close(stop)
	wg.Wait()

	tab, err := c.OpenTable(table)
	if err != nil {
		t.Fatal(err)
	}
	all, err := tab.Query(client.NewQuery()).All()
	if err != nil {
		t.Fatal(err)
	}
	present := map[int64]bool{}
	for _, rw := range all {
		present[rw[0].Int] = true
	}
	mu.Lock()
	defer mu.Unlock()
	lost := 0
	for k := range acked {
		if !present[k] {
			lost++
		}
	}
	if lost > 0 {
		t.Fatalf("%d of %d acked inserts lost across live migration", lost, len(acked))
	}
	t.Logf("migrated with %d acked inserts in flight", len(acked))
}

// TestFailedPlacementSaveLeavesNoTemp fails each step of a placement save
// once: the override is refused, routing keeps the durable placement, and
// no placement.json.tmp is left under Root.
func TestFailedPlacementSaveLeavesNoTemp(t *testing.T) {
	s1, s2 := startShard(t), startShard(t)
	for _, op := range []vfs.Op{vfs.OpCreate, vfs.OpWrite, vfs.OpSync, vfs.OpRename} {
		t.Run(string(op), func(t *testing.T) {
			ffs := vfs.NewFault(vfs.NewMem())
			r, err := New(Options{Shards: []string{s1.addr, s2.addr}, Root: "/router", FS: ffs,
				Logf: func(string, ...interface{}) {}})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			const table = "acme_usage"
			home, _ := r.Placement(table)
			other := s1.addr
			if home == s1.addr {
				other = s2.addr
			}
			ffs.Inject(&vfs.Fault{Op: op, Path: placementFile})
			if err := r.setPlacement(table, other); err == nil {
				t.Fatal("the failed placement save was not reported")
			}
			if got, overridden := r.Placement(table); got != home || overridden {
				t.Errorf("placement after the failed save: %s overridden=%v, want %s", got, overridden, home)
			}
			if _, err := ffs.Stat(filepath.Join("/router", placementFile+".tmp")); err == nil {
				t.Error("the failed save left placement.json.tmp behind")
			}
		})
	}
}
