// Package router is LittleTable's stateless routing tier. The paper
// scales by binning customers across many independent shards with no
// cross-shard coordination (§2.2); the router automates that binning. It
// places each table on a shard by consistent hashing (plus a persisted
// override map for tables that have been migrated), proxies table-scoped
// requests over pooled client connections, scatter-gathers the few
// operations that span shards, and rebalances live by shipping sealed
// tablets — the same cheap-replication trick §6 uses for backups, turned
// into migration.
//
// Routers hold no authoritative state: the ring is a pure function of
// the shard list, and the override map is a small file that can be
// rebuilt by listing each shard. Any number of router instances with the
// same configuration route identically.
package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"littletable/internal/client"
	"littletable/internal/metric"
	"littletable/internal/vfs"
	"littletable/internal/wire"
)

// Defaults for Options zero values.
const (
	DefaultVirtualNodes       = 128
	DefaultProbeInterval      = 500 * time.Millisecond
	DefaultProbeTimeout       = 2 * time.Second
	DefaultScatterConcurrency = 8
)

// placementFile is the override map's file name under Root.
const placementFile = "placement.json"

// Options configure a Router.
type Options struct {
	// Shards are the shard server addresses. Order is irrelevant to
	// placement (the ring hashes addresses, not indices), but every
	// router instance must be configured with the same set.
	Shards []string

	// VirtualNodes per shard on the hash ring. Default 128.
	VirtualNodes int

	// Root, when non-empty, is the directory holding the persisted
	// placement override map. Empty keeps overrides in memory only.
	Root string

	// FS abstracts the filesystem for Root. Nil means the OS filesystem.
	FS vfs.FS

	// ProbeInterval is the health-probe period per shard. Default 500ms.
	ProbeInterval time.Duration

	// ProbeTimeout bounds one health probe. Default 2s.
	ProbeTimeout time.Duration

	// ScatterConcurrency bounds how many shards one scatter-gather
	// operation queries at once. Default 8.
	ScatterConcurrency int

	// RateLimit, when positive, is the per-tenant request budget in
	// requests/second for data-path operations (insert, query, delete,
	// scatter). Refused requests get the retryable Overloaded refusal.
	RateLimit float64

	// RateBurst is the token-bucket ceiling; 0 derives it from RateLimit.
	RateBurst int

	// Client tunes the per-shard connection pools.
	Client client.Options

	// ReadTimeout / WriteTimeout guard the router's own client-facing
	// connections, same semantics as the server's.
	ReadTimeout  time.Duration
	WriteTimeout time.Duration

	// MaxRequestBytes caps one inbound request frame (0 = protocol max).
	MaxRequestBytes int

	// Logf receives diagnostics. Nil discards them.
	Logf func(format string, args ...interface{})
}

func (o Options) withDefaults() Options {
	if o.VirtualNodes <= 0 {
		o.VirtualNodes = DefaultVirtualNodes
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = DefaultProbeInterval
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = DefaultProbeTimeout
	}
	if o.ScatterConcurrency <= 0 {
		o.ScatterConcurrency = DefaultScatterConcurrency
	}
	if o.FS == nil {
		o.FS = vfs.OsFS{}
	}
	if o.Logf == nil {
		o.Logf = func(string, ...interface{}) {}
	}
	return o
}

// Stats count the router's work; read with atomic Loads. These are
// router-local (each instance counts its own traffic). Each field is
// declared once, tag included; see internal/metric.
type Stats struct {
	RoutedInserts       atomic.Int64 `metric:"routed_inserts" help:"Insert requests routed to shards"`
	RoutedQueries       atomic.Int64 `metric:"routed_queries" help:"Query requests routed to shards"`
	ScatterFanout       atomic.Int64 `metric:"scatter_fanout" help:"Per-shard requests issued by scatter-gather operations"`
	ShardDown           atomic.Int64 `metric:"shard_down" help:"Shard up-to-down health transitions observed"`
	RateLimited         atomic.Int64 `metric:"rate_limited" help:"Requests refused by per-tenant rate limits"`
	MigrationsCompleted atomic.Int64 `metric:"migrations_completed" help:"Table migrations completed"`
	MigratedBytes       atomic.Int64 `metric:"migrated_bytes" help:"Sealed-tablet bytes shipped by migrations"`
}

// Router routes table-scoped requests to shards and fans out the rest.
type Router struct {
	opts    Options
	ring    *ring
	shards  []*shard
	limiter *tenantLimiter
	stats   Stats

	// pmu guards placement, the table→shard-address override map. A table
	// in the map lives where the map says, not where the ring says.
	// wmu serializes placement writers so the persisted file never goes
	// backwards; it is acquired before pmu and held across the save —
	// pmu itself is never held across file I/O.
	wmu       sync.Mutex
	pmu       sync.Mutex
	placement map[string]string

	// mmu guards migrating, the set of tables with a cutover gate closed,
	// and inflight, the per-table count of routed requests in progress —
	// what a cutover drains before flipping placement.
	mmu       sync.Mutex
	mcond     *sync.Cond
	migrating map[string]bool
	inflight  map[string]int

	baseCtx    context.Context
	baseCancel context.CancelFunc

	smu     sync.Mutex
	serving map[*connState]struct{}
	lis     closers

	closed atomic.Bool
	wg     sync.WaitGroup
}

type closers []interface{ Close() error }

// New builds a Router, loads any persisted placement overrides, and
// starts the health-probe loops. Shard connections are dialed lazily on
// first use.
func New(opts Options) (*Router, error) {
	opts = opts.withDefaults()
	if len(opts.Shards) == 0 {
		return nil, errors.New("router: no shards configured")
	}
	seen := make(map[string]bool, len(opts.Shards))
	for _, a := range opts.Shards {
		if a == "" {
			return nil, errors.New("router: empty shard address")
		}
		if seen[a] {
			return nil, fmt.Errorf("router: duplicate shard address %q", a)
		}
		seen[a] = true
	}
	r := &Router{
		opts:      opts,
		ring:      newRing(opts.Shards, opts.VirtualNodes),
		limiter:   newTenantLimiter(opts.RateLimit, opts.RateBurst),
		placement: make(map[string]string),
		migrating: make(map[string]bool),
		inflight:  make(map[string]int),
		serving:   make(map[*connState]struct{}),
	}
	r.mcond = sync.NewCond(&r.mmu)
	r.baseCtx, r.baseCancel = context.WithCancel(context.Background())
	for _, addr := range opts.Shards {
		r.shards = append(r.shards, newShard(addr, opts.Client))
	}
	if opts.Root != "" {
		if err := opts.FS.MkdirAll(opts.Root); err != nil {
			return nil, fmt.Errorf("router: %v", err)
		}
		if err := r.loadPlacement(); err != nil {
			return nil, err
		}
	}
	for _, sh := range r.shards {
		r.wg.Add(1)
		go r.probeLoop(sh)
	}
	return r, nil
}

// Stats exposes the router's counters.
func (r *Router) Stats() *Stats { return &r.stats }

// shardIndex returns the index of addr in the configured shard list, or
// -1 when addr is not a configured shard.
func (r *Router) shardIndex(addr string) int {
	for i, sh := range r.shards {
		if sh.addr == addr {
			return i
		}
	}
	return -1
}

// shardFor resolves the shard owning a table: the placement override if
// one exists, the ring otherwise.
func (r *Router) shardFor(table string) *shard {
	r.pmu.Lock()
	addr, ok := r.placement[table]
	r.pmu.Unlock()
	if ok {
		if i := r.shardIndex(addr); i >= 0 {
			return r.shards[i]
		}
		// Stale override naming a shard no longer configured: fall back to
		// the ring rather than blackholing the table.
	}
	return r.shards[r.ring.owner(table)]
}

// Placement reports the table's current shard address and whether an
// override (vs. the ring) decided it.
func (r *Router) Placement(table string) (addr string, overridden bool) {
	r.pmu.Lock()
	addr, overridden = r.placement[table]
	r.pmu.Unlock()
	if overridden && r.shardIndex(addr) >= 0 {
		return addr, true
	}
	return r.shards[r.ring.owner(table)].addr, false
}

// setPlacement records (and persists) a placement override. Writers
// serialize on wmu; pmu is held only for the in-memory map mutation and
// snapshot, never across the fsync — a placement write must not stall
// the routing of every other table behind disk latency (DESIGN §11).
// Lock order: wmu before pmu.
func (r *Router) setPlacement(table, addr string) error {
	r.wmu.Lock()
	defer r.wmu.Unlock()
	r.pmu.Lock()
	prev, had := r.placement[table]
	if r.shards[r.ring.owner(table)].addr == addr {
		// Migrating back to the ring's choice: drop the override entirely
		// so the map only carries exceptions.
		delete(r.placement, table)
	} else {
		r.placement[table] = addr
	}
	snapshot := make(map[string]string, len(r.placement))
	for k, v := range r.placement {
		snapshot[k] = v
	}
	r.pmu.Unlock()
	if err := r.savePlacement(snapshot); err != nil {
		// Restore the in-memory map so routing matches the durable state.
		// wmu is still held, so no concurrent writer saw the new entry on
		// disk; readers that routed on it meanwhile routed on a placement
		// that simply never became durable — the same window a crash
		// before the rename leaves.
		r.pmu.Lock()
		if had {
			r.placement[table] = prev
		} else {
			delete(r.placement, table)
		}
		r.pmu.Unlock()
		return err
	}
	return nil
}

// loadPlacement reads the override map from Root; a missing file is an
// empty map.
func (r *Router) loadPlacement() error {
	path := filepath.Join(r.opts.Root, placementFile)
	data, err := vfs.ReadFile(r.opts.FS, path)
	if err != nil {
		if _, serr := r.opts.FS.Stat(path); serr != nil {
			return nil // not written yet
		}
		return fmt.Errorf("router: read placement: %v", err)
	}
	m := make(map[string]string)
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("router: parse placement: %v", err)
	}
	r.pmu.Lock()
	r.placement = m
	r.pmu.Unlock()
	return nil
}

// savePlacement writes a placement snapshot atomically: temp file,
// sync, rename, sync dir — the same recipe as the descriptor (§3.2).
// Callers hold wmu (so saves are ordered) but NOT pmu: the fsync runs
// outside the routing lock.
func (r *Router) savePlacement(placement map[string]string) error {
	if r.opts.Root == "" {
		return nil
	}
	data, err := json.MarshalIndent(placement, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(r.opts.Root, placementFile)
	tmp := path + ".tmp"
	f, err := r.opts.FS.Create(tmp)
	if err != nil {
		return fmt.Errorf("router: persist placement: %v", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("router: persist placement: %v", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("router: persist placement: %v", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("router: persist placement: %v", err)
	}
	if err := r.opts.FS.Rename(tmp, path); err != nil {
		return fmt.Errorf("router: persist placement: %v", err)
	}
	if err := r.opts.FS.SyncDir(r.opts.Root); err != nil {
		return fmt.Errorf("router: persist placement: %v", err)
	}
	return nil
}

// beginTable gates one routed request on table: it blocks while a
// migration cutover has the table frozen, then registers the request so
// the next cutover can drain it. The returned func must be called when
// the request finishes.
func (r *Router) beginTable(ctx context.Context, table string) (func(), error) {
	r.mmu.Lock()
	for r.migrating[table] {
		if ctx.Err() != nil {
			r.mmu.Unlock()
			return nil, ctx.Err()
		}
		// Cutovers are sub-second (a placement flip plus a tablet delta);
		// waiting beats bouncing an Overloaded refusal back per request.
		r.mcond.Wait()
	}
	r.inflight[table]++
	r.mmu.Unlock()
	return func() {
		r.mmu.Lock()
		r.inflight[table]--
		if r.inflight[table] == 0 {
			delete(r.inflight, table)
			r.mcond.Broadcast()
		}
		r.mmu.Unlock()
	}, nil
}

// freezeTable closes the cutover gate for table and waits until every
// in-flight routed request on it drains. The returned func reopens the
// gate.
func (r *Router) freezeTable(ctx context.Context, table string) (func(), error) {
	r.mmu.Lock()
	if r.migrating[table] {
		r.mmu.Unlock()
		return nil, fmt.Errorf("router: table %q already migrating", table)
	}
	r.migrating[table] = true
	for r.inflight[table] > 0 {
		if ctx.Err() != nil {
			delete(r.migrating, table)
			r.mcond.Broadcast()
			r.mmu.Unlock()
			return nil, ctx.Err()
		}
		r.mcond.Wait()
	}
	r.mmu.Unlock()
	return func() {
		r.mmu.Lock()
		delete(r.migrating, table)
		r.mcond.Broadcast()
		r.mmu.Unlock()
	}, nil
}

// Close stops probes, closes listeners and client pools, and cancels
// in-flight work.
func (r *Router) Close() error {
	if !r.closed.CompareAndSwap(false, true) {
		return nil
	}
	r.baseCancel()
	// Wake any cond waiters so gated requests observe cancellation.
	r.mmu.Lock()
	r.mcond.Broadcast()
	r.mmu.Unlock()
	r.smu.Lock()
	for _, l := range r.lis {
		l.Close()
	}
	r.lis = nil
	for st := range r.serving {
		st.conn.Close()
	}
	r.smu.Unlock()
	for _, sh := range r.shards {
		sh.close()
	}
	r.wg.Wait()
	return nil
}

// statsResult snapshots the router counters plus shard health.
func (r *Router) statsResult() *wire.RouterStatsResult {
	res := &wire.RouterStatsResult{Counters: metric.Read(&r.stats)}
	for _, sh := range r.shards {
		res.Shards = append(res.Shards, wire.RouterShardInfo{
			Addr:  sh.addr,
			State: uint8(sh.state.Load()),
		})
	}
	sort.Slice(res.Shards, func(i, j int) bool { return res.Shards[i].Addr < res.Shards[j].Addr })
	return res
}
