package server

import (
	"math"

	"littletable/internal/agg"
	"littletable/internal/core"
	"littletable/internal/wire"
)

// DefaultMaxAggGroups caps the groups one aggregation query may
// accumulate when the client does not set its own cap; it bounds the
// O(groups) server memory the same way QueryRowLimit bounds a row scan.
const DefaultMaxAggGroups = 65536

// handleAggQuery folds every matching local table's rows into
// (time-bucket × key-prefix) group states as the merge-sorted cursor
// yields them, and answers with partial aggregates only — the raw rows
// never leave the server. The router sends the same message to every
// shard and merges the partials; a single-shard client gets identical
// semantics directly.
func (s *Server) handleAggQuery(wc *wire.Conn, payload []byte) error {
	m, err := wire.Decode[wire.AggQuery](payload)
	if err != nil {
		return err
	}
	matched, truncated := s.matchTables(m.Prefix, m.MaxTables)
	resp := &wire.AggResult{Spec: m.Spec, Truncated: truncated}
	maxGroups := int(m.MaxGroups)
	if maxGroups <= 0 {
		maxGroups = DefaultMaxAggGroups
	}
	q := core.Query{MinTs: m.MinTs, MaxTs: m.MaxTs}
	if m.MinTs == 0 && m.MaxTs == 0 {
		// An unset window means all time. Engine bounds are inclusive, so
		// taking the zero values literally would match only the single
		// microsecond 0 and silently fold nothing.
		q.MinTs, q.MaxTs = math.MinInt64, math.MaxInt64
	}
	total := 0
	for _, name := range matched {
		t, err := s.Table(name)
		if err != nil {
			// Dropped between listing and scan; an agg result is a
			// snapshot, not a transaction. Skip it.
			continue
		}
		if total >= maxGroups {
			resp.Truncated = true
			break
		}
		acc, err := agg.NewAccumulator(t.Schema(), m.Spec)
		if err != nil {
			// The spec doesn't fit this table's schema. Prefix matching
			// assumes same-shaped tables by convention (§2.2); a
			// differently shaped namesake is skipped, not fatal —
			// mirroring scatter's ErrBadQuery handling.
			continue
		}
		it, err := t.QueryCtx(s.baseCtx, q)
		if err != nil {
			return s.sendErr(wc, err)
		}
		for it.Next() {
			acc.Add(it.Row())
			if total+acc.NumGroups() > maxGroups {
				// Stop folding: the groups so far are still valid
				// partials, but coverage is incomplete.
				resp.Truncated = true
				break
			}
		}
		scanErr := it.Err()
		it.Close()
		if scanErr != nil {
			return s.sendErr(wc, scanErr)
		}
		t.Stats().AggQueries.Add(1)
		t.Stats().AggRowsFolded.Add(acc.Rows())
		resp.RowsFolded += acc.Rows()
		groups := acc.Groups()
		total += len(groups)
		if m.WantPartials {
			resp.Tables = append(resp.Tables, wire.AggTablePartial{Table: name, Groups: groups})
		}
		resp.Groups = agg.MergeGroups(m.Spec, resp.Groups, groups)
	}
	return wc.WriteMsg(wire.MsgAggResult, resp.Encode())
}
