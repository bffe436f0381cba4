package router

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"littletable/internal/client"
	"littletable/internal/core"
	"littletable/internal/netfault"
	"littletable/internal/schema"
	"littletable/internal/wire"
)

// chaosSeed follows the LTNETFAULT_SEED convention shared with the
// client chaos suite and the crash harness, so the CI matrix replays.
func chaosSeed() int64 {
	if v := os.Getenv("LTNETFAULT_SEED"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			return n
		}
	}
	return 1
}

// chaosProxy fronts addr with a fault-injecting proxy; on failure the
// recorded fault script lands in LTNETFAULT_ARTIFACT for replay.
func chaosProxy(t *testing.T, name, addr string, cfg netfault.Config) *netfault.Proxy {
	t.Helper()
	cfg.Seed = chaosSeed()
	p, err := netfault.New(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if t.Failed() {
			if dir := os.Getenv("LTNETFAULT_ARTIFACT"); dir != "" {
				if err := os.MkdirAll(dir, 0o755); err == nil {
					fname := strings.ReplaceAll(t.Name(), "/", "_") + "." + name + ".faults.txt"
					header := fmt.Sprintf("seed %d\n", cfg.Seed)
					os.WriteFile(filepath.Join(dir, fname), []byte(header+p.Script()), 0o644)
				}
			}
		}
		p.Close()
	})
	return p
}

// typedChaosError mirrors the client chaos suite's contract: under
// faults every failure must be one of the sanctioned typed errors.
func typedChaosError(err error) bool {
	var re *client.RemoteError
	return errors.Is(err, client.ErrDisconnected) ||
		errors.Is(err, client.ErrOverloaded) ||
		errors.Is(err, client.ErrClientClosed) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, wire.ErrCorrupt) ||
		errors.As(err, &re)
}

func chaosClientOpts(seedOffset int64) client.Options {
	return client.Options{
		PoolSize:       2,
		DialTimeout:    2 * time.Second,
		RequestTimeout: 2 * time.Second,
		RetryBaseDelay: 2 * time.Millisecond,
		RetryMaxDelay:  50 * time.Millisecond,
		JitterSeed:     chaosSeed() + seedOffset,
	}
}

// TestClusterChaosNoAckedInsertLost is the cluster-level §4.1 contract:
// writers insert unique rows through the router into a 3-shard topology
// whose shard links drop, reset, and truncate; mid-load one shard is
// gracefully restarted (drain, flush, new process at a new address
// behind the same proxy) and one table is live-migrated between shards.
// Whatever the network does, every insert the router acknowledged must
// be readable from some shard afterwards, and every failure must be a
// typed error.
func TestClusterChaosNoAckedInsertLost(t *testing.T) {
	shards := []*testShard{startShard(t), startShard(t), startShard(t)}
	proxies := make([]*netfault.Proxy, len(shards))
	proxyAddrs := make([]*testShard, len(shards)) // shadow structs with proxy addrs
	cfg := netfault.Config{DropRate: 0.01, ResetRate: 0.01, PartialRate: 0.005}
	for i, sh := range shards {
		proxies[i] = chaosProxy(t, fmt.Sprintf("shard%d", i), sh.addr, cfg)
		proxyAddrs[i] = &testShard{addr: proxies[i].Addr()}
	}
	r, raddr := startRouter(t, Options{
		ProbeInterval: 50 * time.Millisecond,
		Client:        chaosClientOpts(900),
	}, proxyAddrs...)

	// Table setup through the router, with retries against the fault storm.
	const tables = 4
	admin, err := client.DialContext(context.Background(), raddr, chaosClientOpts(800))
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	for i := 0; i < tables; i++ {
		name := fmt.Sprintf("cust%d_usage", i)
		deadline := time.Now().Add(10 * time.Second)
		for {
			err := admin.CreateTable(name, testSchema(), 0)
			if err == nil {
				break
			}
			var re *client.RemoteError
			if errors.As(err, &re) && strings.Contains(re.Msg, "exists") {
				break // an earlier attempt landed; the ack was lost to the storm
			}
			if !typedChaosError(err) {
				t.Fatalf("create %s: untyped error: %v", name, err)
			}
			if time.Now().After(deadline) {
				t.Fatalf("create %s never succeeded: %v", name, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Writers: unique keys per writer, acked set recorded under lock.
	const writers = 4
	type key struct {
		table string
		k     int64
	}
	var mu sync.Mutex
	acked := map[key]bool{}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int64) {
			defer wg.Done()
			table := fmt.Sprintf("cust%d_usage", w%tables)
			c, err := client.DialContext(context.Background(), raddr, chaosClientOpts(w))
			if err != nil {
				errCh <- fmt.Errorf("writer %d dial router: %w", w, err)
				return
			}
			defer c.Close()
			tab, err := c.OpenTable(table)
			if err != nil {
				if !typedChaosError(err) {
					errCh <- fmt.Errorf("writer %d open: %w", w, err)
				}
				return
			}
			// Cap well below the scatter per-table row limit (16384) so the
			// final verification scan sees every row in one response.
			for seq := int64(0); seq < 8000; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				k := w*1_000_000 + seq
				err := tab.InsertNow([]schema.Row{row(k, 1_000_000+seq)})
				if err == nil {
					mu.Lock()
					acked[key{table, k}] = true
					mu.Unlock()
					continue
				}
				if !typedChaosError(err) {
					errCh <- fmt.Errorf("writer %d seq %d: untyped error: %w", w, seq, err)
					return
				}
			}
		}(int64(w))
	}

	time.Sleep(150 * time.Millisecond) // build load

	// Graceful shard restart mid-load: drain in-flight (acked requests
	// complete), flush (acked rows become durable), close, and revive at a
	// new address behind the same proxy — the §2.3.4 restart, clustered.
	victim := shards[1]
	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := victim.srv.Drain(sctx); err != nil {
		t.Errorf("victim drain: %v", err)
	}
	scancel()
	// Drain, not Shutdown: flush must run between the last acked request
	// and table close, or the memtable rows vanish with the process.
	if err := victim.srv.FlushAllTables(); err != nil {
		t.Fatalf("victim flush: %v", err)
	}
	victim.srv.Close()
	revived := startShardAt(t, victim.root, "127.0.0.1:0")
	shards[1] = revived
	proxies[1].SetTarget(revived.addr)
	proxies[1].CutAll() // sever half-open conns so pools redial promptly

	// Wait for the prober to see the revived shard.
	deadline := time.Now().Add(10 * time.Second)
	for r.shards[1].state.Load() != shardUp {
		if time.Now().After(deadline) {
			t.Fatal("revived shard never probed back up")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Live migration under fire: move cust0_usage to whichever shard
	// doesn't own it. Attempts may fail typed under faults; it must
	// eventually succeed and never lose data either way.
	const migTable = "cust0_usage"
	srcAddr, _ := r.Placement(migTable)
	targetAddr := ""
	for _, ps := range proxyAddrs {
		if ps.addr != srcAddr {
			targetAddr = ps.addr
			break
		}
	}
	migrated := false
	for attempt := 0; attempt < 10 && !migrated; attempt++ {
		err := r.Migrate(context.Background(), migTable, targetAddr)
		if err == nil {
			migrated = true
			break
		}
		if !typedChaosError(err) && !strings.Contains(err.Error(), "router:") {
			t.Fatalf("migrate attempt %d: untyped error: %v", attempt, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !migrated {
		t.Errorf("migration never completed in 10 attempts (seed %d)", chaosSeed())
	}

	time.Sleep(100 * time.Millisecond) // writers keep hitting the new topology
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// Verify over clean paths: dial each shard directly (no proxy) and
	// union each table's rows across shards — a mid-failed migration may
	// leave a table on two shards, which is fine; losing an acked row is
	// not.
	present := map[key]bool{}
	for i, sh := range shards {
		c, err := client.DialContext(context.Background(), sh.addr, client.Options{JitterSeed: 1})
		if err != nil {
			t.Fatalf("verify dial shard %d: %v", i, err)
		}
		res, err := c.ScatterQuery(context.Background(), &wire.ScatterQuery{Prefix: "cust", Query: core.Query{MaxTs: 1 << 62}})
		if err != nil {
			t.Fatalf("verify scan shard %d: %v", i, err)
		}
		for _, sec := range res.Tables {
			for _, rw := range sec.Rows {
				present[key{sec.Table, rw[0].Int}] = true
			}
		}
		c.Close()
	}
	mu.Lock()
	lost := 0
	for k := range acked {
		if !present[k] {
			lost++
			t.Errorf("acked insert lost: table %s key %d", k.table, k.k)
		}
	}
	ackedN := len(acked)
	mu.Unlock()
	if lost > 0 {
		t.Fatalf("%d of %d acked inserts lost (seed %d)", lost, ackedN, chaosSeed())
	}
	st := r.Stats()
	t.Logf("seed %d: %d acked, migrated=%v, routed inserts=%d, shed=%d, shard-down transitions=%d",
		chaosSeed(), ackedN, migrated, st.RoutedInserts.Load(), st.RateLimited.Load(), st.ShardDown.Load())
}

// TestClusterChaosScatterFailsCleanly hammers scatter-gather reads while
// the shard links misbehave: every scatter either succeeds with sorted,
// well-formed sections or fails with a typed error — never a panic, a
// hang, or silent partial data presented as complete.
func TestClusterChaosScatterFailsCleanly(t *testing.T) {
	shards := []*testShard{startShard(t), startShard(t), startShard(t)}
	cfg := netfault.Config{DropRate: 0.02, ResetRate: 0.01, LatencyMax: 2 * time.Millisecond}
	proxyAddrs := make([]*testShard, len(shards))
	for i, sh := range shards {
		p := chaosProxy(t, fmt.Sprintf("shard%d", i), sh.addr, cfg)
		proxyAddrs[i] = &testShard{addr: p.Addr()}
	}
	_, raddr := startRouter(t, Options{
		ProbeInterval: 50 * time.Millisecond,
		Client:        chaosClientOpts(700),
	}, proxyAddrs...)

	// Seed rows directly onto the shards (setup is not under test): the
	// ring decides the owner, so insert through a fault-free router.
	cleanR, cleanAddr := startRouter(t, Options{}, shards...)
	_ = cleanR
	admin, err := client.DialContext(context.Background(), cleanAddr, client.Options{JitterSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	total := 0
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("acme_t%d", i)
		if err := admin.CreateTable(name, testSchema(), 0); err != nil {
			t.Fatal(err)
		}
		tab, err := admin.OpenTable(name)
		if err != nil {
			t.Fatal(err)
		}
		for k := int64(0); k < 20; k++ {
			if err := tab.InsertNow([]schema.Row{row(k, 1000+k)}); err != nil {
				t.Fatal(err)
			}
			total++
		}
	}

	const readers = 3
	var wg sync.WaitGroup
	errCh := make(chan error, readers)
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func(rd int64) {
			defer wg.Done()
			c, err := client.DialContext(context.Background(), raddr, chaosClientOpts(300+rd))
			if err != nil {
				errCh <- fmt.Errorf("reader %d dial: %w", rd, err)
				return
			}
			defer c.Close()
			for i := 0; i < 25; i++ {
				res, err := c.ScatterQuery(context.Background(), &wire.ScatterQuery{Prefix: "acme_", Query: core.Query{MaxTs: 1 << 62}})
				if err != nil {
					if typedChaosError(err) {
						continue
					}
					errCh <- fmt.Errorf("reader %d scatter %d: untyped error: %w", rd, i, err)
					return
				}
				// A successful scatter must be complete and ordered.
				got := 0
				for j, sec := range res.Tables {
					got += len(sec.Rows)
					if j > 0 && sec.Table <= res.Tables[j-1].Table {
						errCh <- fmt.Errorf("reader %d: unsorted scatter sections", rd)
						return
					}
				}
				if len(res.Tables) == 6 && got != total {
					errCh <- fmt.Errorf("reader %d: complete scatter returned %d rows, want %d", rd, got, total)
					return
				}
			}
		}(int64(rd))
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}
