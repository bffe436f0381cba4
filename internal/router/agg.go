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
// so any down shard refuses the whole request. The combined Groups are
// recomputed here from the deduplicated per-table sections rather than
// merged from the shards' combined views: mid-migration a table can
// report from two shards, and aggregate states cannot be subtracted, so
// dedup has to happen at table granularity before the cross-table merge.
func (r *Router) handleAggQuery(wc *wire.Conn, payload []byte) error {
	m, err := wire.DecodeAggQuery(payload)
	if err != nil {
		return r.sendErr(wc, err)
	}
	up, refusal := r.admitPrefix(m.Prefix, "aggregation")
	if refusal != "" {
		return r.sendOverloaded(wc, refusal)
	}
	// The router always needs table granularity from the shards —
	// migration dedup happens per table — even when the client asked for
	// merged groups only.
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
	for _, sec := range merged.Tables {
		merged.Groups = agg.MergeGroups(m.Spec, merged.Groups, sec.Groups)
	}
	if !wantPartials {
		merged.Tables = nil
	}
	return wc.WriteMsg(wire.MsgAggResult, merged.Encode())
}
