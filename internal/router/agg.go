package router

import (
	"context"

	"littletable/internal/agg"
	"littletable/internal/client"
	"littletable/internal/wire"
)

// handleAggQuery fans an aggregation query out to every shard and merges
// the partial aggregates. Like scatter, an aggregate must be complete to
// be correct — a missing shard silently zeroes its tables' contribution —
// so any down shard refuses the whole request. The router always asks
// the shards for per-table sections (WantPartials), which carry no
// merged groups: mid-migration a table can report from two shards, and
// aggregate states cannot be subtracted, so dedup has to happen at table
// granularity before the one cross-table merge, a k-way fold here over
// the deduplicated sections. A client that set WantPartials itself gets
// those sections back unmerged; any other gets the merged groups only.
func (r *Router) handleAggQuery(wc *wire.Conn, payload []byte) error {
	m, err := wire.Decode[wire.AggQuery](payload)
	if err != nil {
		return r.sendErr(wc, err)
	}
	up, refusal := r.admitPrefix(m.Prefix, "aggregation")
	if refusal != "" {
		return r.sendOverloaded(wc, refusal)
	}
	wantPartials := m.WantPartials
	m.WantPartials = true
	results, err := gather(r, up, func(cl *client.Client, ctx context.Context) (*wire.AggResult, error) {
		return cl.AggQuery(ctx, m)
	})
	if err != nil {
		return r.sendErr(wc, err)
	}
	merged := &wire.AggResult{Spec: m.Spec}
	for _, res := range results {
		merged.RowsFolded += res.RowsFolded
	}
	merged.Tables, merged.Truncated = mergeSections(r, up, results, m.MaxTables,
		func(res *wire.AggResult) ([]wire.AggTablePartial, bool) { return res.Tables, res.Truncated },
		func(sec wire.AggTablePartial) string { return sec.Table })
	if !wantPartials {
		lists := make([][]agg.Group, len(merged.Tables))
		for i, sec := range merged.Tables {
			lists[i] = sec.Groups
		}
		merged.Groups, merged.Tables = agg.MergeLists(m.Spec, lists), nil
	}
	return wc.WriteMsg(wire.MsgAggResult, merged.Encode())
}
