package server

import (
	"errors"
	"strings"

	"littletable/internal/core"
	"littletable/internal/wire"
)

// matchTables lists the local tables whose names start with prefix, in
// sorted name order, keeping the first maxTables (0 = no cap); truncated
// reports that the cap cut the list. Scatter and agg queries both cover
// exactly these tables.
func (s *Server) matchTables(prefix string, maxTables uint32) (names []string, truncated bool) {
	for _, n := range s.TableNames() {
		if strings.HasPrefix(n, prefix) {
			names = append(names, n)
		}
	}
	if maxTables > 0 && len(names) > int(maxTables) {
		return names[:maxTables], true
	}
	return names, false
}

// handleScatterQuery runs one bounded query against every local table
// whose name matches the prefix, in sorted name order. The router sends
// the same message to every shard and concatenates the sections; a
// single-shard client gets the same semantics for free.
func (s *Server) handleScatterQuery(wc *wire.Conn, payload []byte) error {
	m, err := wire.Decode[wire.ScatterQuery](payload)
	if err != nil {
		return err
	}
	matched, truncated := s.matchTables(m.Prefix, m.MaxTables)
	resp := wire.NewScatterRowsWriter(truncated)
	limit := s.pageLimit(&m.Query)
	for _, name := range matched {
		t, err := s.Table(name)
		if err != nil {
			// Dropped between listing and query; a scatter result is a
			// snapshot, not a transaction. Skip it.
			continue
		}
		if err := s.scanOneTable(resp, name, t, m.Query, limit); err != nil {
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
