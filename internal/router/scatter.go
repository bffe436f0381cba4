package router

import (
	"context"
	"sort"
	"sync"
	"time"

	"littletable/internal/client"
	"littletable/internal/metric"
	"littletable/internal/wire"
)

// gather asks every listed shard through fn with bounded concurrency
// and returns the answers in shard order. fn takes the client first so
// that a method expression such as (*client.Client).ServerStats fits.
// The first error cancels the context handed to the remaining calls, so
// a stuck shard cannot pin the whole scatter — end-to-end cancellation
// flows from the router's base context through each per-shard client
// request.
func gather[T any](r *Router, shards []*shard, fn func(cl *client.Client, ctx context.Context) (T, error)) ([]T, error) {
	r.stats.ScatterFanout.Add(int64(len(shards)))
	ctx, cancel := context.WithCancel(r.baseCtx)
	defer cancel()
	out := make([]T, len(shards))
	sem := make(chan struct{}, r.opts.ScatterConcurrency)
	errc := make(chan error, len(shards))
	// Every worker is WaitGroup-tied: draining errc proves every fn
	// returned, but not that the goroutines finished their sem release,
	// so gather waits for true quiescence before returning. Without this
	// a worker's tail could still be running while Close tears the
	// router down.
	var wg sync.WaitGroup
	for i, sh := range shards {
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			cl, err := sh.client(ctx)
			if err == nil {
				out[i], err = fn(cl, ctx)
			}
			if err != nil {
				cancel()
			}
			errc <- err
		}()
	}
	var first error
	for range shards {
		if err := <-errc; err != nil && first == nil {
			first = err
		}
	}
	wg.Wait()
	return out, first
}

// upShards returns the shards the prober considers alive.
func (r *Router) upShards() (up []*shard, down []*shard) {
	for _, sh := range r.shards {
		if sh.up() {
			up = append(up, sh)
		} else {
			down = append(down, sh)
		}
	}
	return up, down
}

// handleListTables merges every live shard's table list. Down shards are
// skipped (and logged): listing is a monitoring operation, and a partial
// list beats no list during an outage.
func (r *Router) handleListTables(wc *wire.Conn) error {
	up, downShards := r.upShards()
	lists, err := gather(r, up, (*client.Client).ListTablesCtx)
	if err != nil {
		return r.sendErr(wc, err)
	}
	for _, sh := range downShards {
		r.opts.Logf("router: list-tables skipping down shard %s", sh.addr)
	}
	seen := make(map[string]bool)
	var names []string
	for _, l := range lists {
		for _, n := range l {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	sort.Strings(names)
	m := &wire.TableList{Names: names}
	return wc.WriteMsg(wire.MsgTableList, m.Encode())
}

// handleServerStats sums every live shard's connection counters — the
// cluster-wide view of the numbers each server exposes.
func (r *Router) handleServerStats(wc *wire.Conn) error {
	up, _ := r.upShards()
	results, err := gather(r, up, (*client.Client).ServerStats)
	if err != nil {
		return r.sendErr(wc, err)
	}
	var sum metric.List
	for _, st := range results {
		sum = sum.Add(st)
	}
	return wc.WriteMsg(wire.MsgServerStatsResult, wire.EncodeStats(sum))
}

// admitPrefix is the admission prologue scatter and aggregation share:
// the tenant rate limit on the request's table prefix, then a refusal
// while any shard is down. Unlike listing, a prefix-wide answer must be
// complete to be correct, so a down shard fails the whole request rather
// than silently dropping its tables. A non-empty refusal is the
// Overloaded message to answer with; otherwise up is every shard.
func (r *Router) admitPrefix(prefix, op string) (up []*shard, refusal string) {
	if !r.limiter.allow(tenantOf(prefix), time.Now()) {
		r.stats.RateLimited.Add(1)
		return nil, "router: tenant rate limit exceeded; back off and retry"
	}
	up, down := r.upShards()
	if len(down) > 0 {
		return nil, "router: " + op + " with shard " + down[0].addr + " down; back off and retry"
	}
	r.stats.RoutedQueries.Add(1)
	return up, ""
}

// handleScatterQuery fans a prefix query out to every shard and merges
// the per-table sections.
func (r *Router) handleScatterQuery(wc *wire.Conn, payload []byte) error {
	m, err := wire.DecodeScatterQuery(payload)
	if err != nil {
		return r.sendErr(wc, err)
	}
	up, refusal := r.admitPrefix(m.Prefix, "scatter")
	if refusal != "" {
		return r.sendOverloaded(wc, refusal)
	}
	results, err := gather(r, up, func(cl *client.Client, ctx context.Context) (*wire.ScatterRows, error) {
		return cl.ScatterQuery(ctx, m)
	})
	if err != nil {
		return r.sendErr(wc, err)
	}
	merged := &wire.ScatterRows{}
	merged.Tables, merged.Truncated = mergeSections(r, up, results, m.MaxTables,
		func(res *wire.ScatterRows) ([]wire.ScatterTableRows, bool) { return res.Tables, res.Truncated },
		func(sec wire.ScatterTableRows) string { return sec.Table })
	b, err := merged.Encode()
	if err != nil {
		return r.sendErr(wc, err)
	}
	return wc.WriteMsg(wire.MsgScatterRows, b)
}

// mergeSections is the epilogue scatter and aggregation share: it
// k-way merges the per-table sections each shard answered (sections
// returns them with the shard's truncated flag) into one list sorted by
// table name, stopping at maxTables (0: no cap). truncated reports
// whether any shard or the cap dropped sections. Each server already
// emits its sections in sorted name order, so the merge is a heads walk,
// not a re-sort: pick the smallest head name, emit one section for it,
// advance every list positioned there. A table can transiently exist on
// two shards mid-migration; the copy from the shard the ring routes the
// table to is authoritative, with the first reporter as fallback when
// the owner itself did not report it.
func mergeSections[R, T any](r *Router, shards []*shard, results []R, maxTables uint32,
	sections func(R) ([]T, bool), name func(T) string) (merged []T, truncated bool) {
	lists := make([][]T, len(results))
	total := 0
	for i, res := range results {
		var t bool
		lists[i], t = sections(res)
		truncated = truncated || t
		total += len(lists[i])
	}
	heads := make([]int, len(lists))
	merged = make([]T, 0, total)
	for {
		min := ""
		any := false
		for i, l := range lists {
			if heads[i] >= len(l) {
				continue
			}
			if n := name(l[heads[i]]); !any || n < min {
				min, any = n, true
			}
		}
		if !any {
			return merged, truncated
		}
		if maxTables > 0 && len(merged) == int(maxTables) {
			return merged, true
		}
		owner := r.shardFor(min)
		chosen, have := -1, false
		for i, l := range lists {
			if heads[i] >= len(l) || name(l[heads[i]]) != min {
				continue
			}
			if !have || shards[i] == owner {
				chosen, have = i, true
			}
			heads[i]++
		}
		merged = append(merged, lists[chosen][heads[chosen]-1])
	}
}
