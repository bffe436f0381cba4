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

// fanOut runs fn against every listed shard with bounded concurrency.
// The first error cancels the context handed to the remaining calls, so
// a stuck shard cannot pin the whole scatter — end-to-end cancellation
// flows from the router's base context through each per-shard client
// request. Results land in out[i] for shards[i]; a nil error means every
// fn returned nil.
func (r *Router) fanOut(ctx context.Context, shards []*shard, fn func(ctx context.Context, sh *shard, cl *client.Client) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	sem := make(chan struct{}, r.opts.ScatterConcurrency)
	errc := make(chan error, len(shards))
	// Every worker is WaitGroup-tied: draining errc proves every fn
	// returned, but not that the goroutines finished their sem release,
	// so fanOut waits for true quiescence before returning. Without this
	// a worker's tail could still be running while Close tears the
	// router down.
	var wg sync.WaitGroup
	for _, sh := range shards {
		sem <- struct{}{}
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			defer func() { <-sem }()
			cl, err := sh.client(ctx)
			if err == nil {
				err = fn(ctx, sh, cl)
			}
			if err != nil {
				cancel()
			}
			errc <- err
		}(sh)
	}
	var first error
	for range shards {
		if err := <-errc; err != nil && first == nil {
			first = err
		}
	}
	wg.Wait()
	return first
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
	r.stats.ScatterFanout.Add(int64(len(up)))
	lists := make([][]string, len(up))
	idx := make(map[*shard]int, len(up))
	for i, sh := range up {
		idx[sh] = i
	}
	err := r.fanOut(r.baseCtx, up, func(ctx context.Context, sh *shard, cl *client.Client) error {
		names, err := cl.ListTablesCtx(ctx)
		if err != nil {
			return err
		}
		lists[idx[sh]] = names
		return nil
	})
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
	r.stats.ScatterFanout.Add(int64(len(up)))
	results := make([]metric.List, len(up))
	idx := make(map[*shard]int, len(up))
	for i, sh := range up {
		idx[sh] = i
	}
	err := r.fanOut(r.baseCtx, up, func(ctx context.Context, sh *shard, cl *client.Client) error {
		st, err := cl.ServerStats(ctx)
		if err != nil {
			return err
		}
		results[idx[sh]] = st
		return nil
	})
	if err != nil {
		return r.sendErr(wc, err)
	}
	var sum metric.List
	for _, st := range results {
		sum = sum.Add(st)
	}
	return wc.WriteMsg(wire.MsgServerStatsResult, wire.EncodeStats(sum))
}

// handleScatterQuery fans a prefix query out to every shard and merges
// the per-table sections. Unlike listing, a scatter QUERY must be
// complete to be correct, so a down or failing shard fails the whole
// request rather than silently dropping its tables.
func (r *Router) handleScatterQuery(wc *wire.Conn, payload []byte) error {
	m, err := wire.DecodeScatterQuery(payload)
	if err != nil {
		return r.sendErr(wc, err)
	}
	if !r.limiter.allow(tenantOf(m.Prefix), time.Now()) {
		r.stats.RateLimited.Add(1)
		return r.sendOverloaded(wc, "router: tenant rate limit exceeded; back off and retry")
	}
	up, downShards := r.upShards()
	if len(downShards) > 0 {
		return r.sendOverloaded(wc, "router: scatter with shard "+downShards[0].addr+" down; back off and retry")
	}
	r.stats.ScatterFanout.Add(int64(len(up)))
	r.stats.RoutedQueries.Add(1)
	results := make([]*wire.ScatterRows, len(up))
	idx := make(map[*shard]int, len(up))
	for i, sh := range up {
		idx[sh] = i
	}
	err = r.fanOut(r.baseCtx, up, func(ctx context.Context, sh *shard, cl *client.Client) error {
		res, err := cl.ScatterQuery(ctx, m)
		if err != nil {
			return err
		}
		results[idx[sh]] = res
		return nil
	})
	if err != nil {
		return r.sendErr(wc, err)
	}
	merged := &wire.ScatterRows{}
	lists := make([][]wire.ScatterTableRows, len(up))
	for i, res := range results {
		merged.Truncated = merged.Truncated || res.Truncated
		lists[i] = res.Tables
	}
	merged.Tables = mergeSections(r, up, lists, func(sec wire.ScatterTableRows) string { return sec.Table })
	if m.MaxTables > 0 && len(merged.Tables) > int(m.MaxTables) {
		merged.Tables = merged.Tables[:m.MaxTables]
		merged.Truncated = true
	}
	b, err := merged.Encode()
	if err != nil {
		return r.sendErr(wc, err)
	}
	return wc.WriteMsg(wire.MsgScatterRows, b)
}

// mergeSections k-way merges per-shard section lists into one list
// sorted by table name. Each server already emits its sections in
// sorted name order, so the merge is a heads walk, not a re-sort: pick
// the smallest head name, emit one section for it, advance every list
// positioned there. A table can transiently exist on two shards
// mid-migration; the copy from the shard the ring routes the table to
// is authoritative, with the first reporter as fallback when the owner
// itself did not report it.
func mergeSections[T any](r *Router, shards []*shard, lists [][]T, name func(T) string) []T {
	heads := make([]int, len(lists))
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	merged := make([]T, 0, total)
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
			return merged
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
