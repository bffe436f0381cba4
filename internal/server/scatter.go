package server

import (
	"errors"
	"sort"
	"strings"

	"littletable/internal/core"
	"littletable/internal/wire"
)

// handleScatterQuery runs one bounded query against every local table
// whose name matches the prefix, in sorted name order. The router sends
// the same message to every shard and concatenates the sections; a
// single-shard client gets the same semantics for free.
func (s *Server) handleScatterQuery(wc *wire.Conn, payload []byte) error {
	m, err := wire.DecodeScatterQuery(payload)
	if err != nil {
		return err
	}
	names := s.TableNames()
	sort.Strings(names)
	matched := names[:0]
	for _, n := range names {
		if strings.HasPrefix(n, m.Prefix) {
			matched = append(matched, n)
		}
	}
	truncated := m.MaxTables > 0 && len(matched) > int(m.MaxTables)
	if truncated {
		matched = matched[:m.MaxTables]
	}
	resp := wire.NewScatterRowsWriter(truncated)
	limit := s.opts.QueryRowLimit
	if m.PerTableLimit > 0 && int(m.PerTableLimit) < limit {
		limit = int(m.PerTableLimit)
	}
	q := core.Query{
		LowerInc: m.LowerInc, UpperInc: m.UpperInc,
		MinTs: m.MinTs, MaxTs: m.MaxTs,
		Descending: m.Descending,
	}
	if m.HasLower {
		q.Lower = m.Lower
	}
	if m.HasUpper {
		q.Upper = m.Upper
	}
	for _, name := range matched {
		t, err := s.Table(name)
		if err != nil {
			// Dropped between listing and query; a scatter result is a
			// snapshot, not a transaction. Skip it.
			continue
		}
		if err := s.scanOneTable(resp, name, t, q, limit); err != nil {
			return s.sendErr(wc, err)
		}
	}
	return wc.WriteMsg(wire.MsgScatterRows, resp.Finish())
}

// scanOneTable appends table t's section to resp, encoding each row as the
// cursor yields it. A table the query does not fit gets no section.
func (s *Server) scanOneTable(resp *wire.ScatterRowsWriter, name string, t *core.Table, q core.Query, limit int) error {
	it, err := t.QueryCtx(s.baseCtx, q)
	if errors.Is(err, core.ErrBadQuery) {
		// The key bounds don't fit this table's schema. Prefix scatter
		// assumes same-shaped tables by convention (§2.2, one table per
		// customer/device-class); a differently shaped namesake is
		// skipped, not fatal.
		return nil
	}
	if err != nil {
		return err
	}
	defer it.Close()
	if err := resp.BeginTable(name, t.Schema()); err != nil {
		return err
	}
	for resp.Len() < limit && it.Next() {
		resp.Append(it.Row())
	}
	if err := it.Err(); err != nil {
		return err
	}
	resp.EndTable(resp.Len() == limit && it.Next())
	return nil
}
