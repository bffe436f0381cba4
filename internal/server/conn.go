package server

import (
	"fmt"

	"littletable/internal/core"
	"littletable/internal/schema"
	"littletable/internal/wire"
)

func (s *Server) sendErr(wc *wire.Conn, err error) error {
	return wc.WriteError(wire.MsgError, err.Error())
}

func (s *Server) sendOK(wc *wire.Conn) error {
	return wc.WriteMsg(wire.MsgOK, nil)
}

// dispatch answers one request for the wire.Front; Hello and the
// admission gate never reach it.
func (s *Server) dispatch(wc *wire.Conn, mt wire.MsgType, payload []byte) error {
	switch mt {
	case wire.MsgListTables:
		m := &wire.TableList{Names: s.TableNames()}
		return wc.WriteMsg(wire.MsgTableList, m.Encode())

	case wire.MsgCreateTable:
		m, err := wire.DecodeCreateTable(payload)
		if err != nil {
			return err
		}
		if _, err := s.CreateTable(m.Name, m.Schema, m.TTL); err != nil {
			return s.sendErr(wc, err)
		}
		return s.sendOK(wc)

	case wire.MsgDropTable:
		m, err := wire.DecodeTableName(payload)
		if err != nil {
			return err
		}
		if err := s.DropTable(m.Name); err != nil {
			return s.sendErr(wc, err)
		}
		return s.sendOK(wc)

	case wire.MsgGetSchema:
		m, err := wire.DecodeTableName(payload)
		if err != nil {
			return err
		}
		t, err := s.Table(m.Name)
		if err != nil {
			return s.sendErr(wc, err)
		}
		resp := &wire.SchemaResp{Schema: t.Schema(), TTL: t.TTL()}
		b, err := resp.Encode()
		if err != nil {
			return err
		}
		return wc.WriteMsg(wire.MsgSchema, b)

	case wire.MsgInsert:
		return s.handleInsert(wc, payload)

	case wire.MsgQuery:
		return s.handleQuery(wc, payload)

	case wire.MsgLatestRow:
		return s.handleLatestRow(wc, payload)

	case wire.MsgAlterTTL:
		m, err := wire.DecodeAlterTTL(payload)
		if err != nil {
			return err
		}
		t, err := s.Table(m.Table)
		if err != nil {
			return s.sendErr(wc, err)
		}
		if err := t.AlterTTL(m.TTL); err != nil {
			return s.sendErr(wc, err)
		}
		return s.sendOK(wc)

	case wire.MsgAddColumn:
		m, err := wire.DecodeAddColumn(payload)
		if err != nil {
			return err
		}
		t, err := s.Table(m.Table)
		if err != nil {
			return s.sendErr(wc, err)
		}
		col := schema.Column{Name: m.Name, Type: m.Type, Default: m.Default}
		if err := t.AddColumn(col); err != nil {
			return s.sendErr(wc, err)
		}
		return s.sendOK(wc)

	case wire.MsgWidenColumn:
		m, err := wire.DecodeWidenColumn(payload)
		if err != nil {
			return err
		}
		t, err := s.Table(m.Table)
		if err != nil {
			return s.sendErr(wc, err)
		}
		if err := t.WidenColumn(m.Name); err != nil {
			return s.sendErr(wc, err)
		}
		return s.sendOK(wc)

	case wire.MsgFlushTable:
		// The explicit flush command §4.1.2 proposes so aggregators can
		// know their source data reached disk.
		m, err := wire.DecodeTableName(payload)
		if err != nil {
			return err
		}
		t, err := s.Table(m.Name)
		if err != nil {
			return s.sendErr(wc, err)
		}
		if err := t.FlushAll(); err != nil {
			return s.sendErr(wc, err)
		}
		return s.sendOK(wc)

	case wire.MsgDelete:
		m, err := wire.DecodeDelete(payload)
		if err != nil {
			return err
		}
		t, err := s.Table(m.Table)
		if err != nil {
			return s.sendErr(wc, err)
		}
		q := core.Query{
			LowerInc: m.LowerInc, UpperInc: m.UpperInc,
			MinTs: m.MinTs, MaxTs: m.MaxTs,
		}
		if m.HasLower {
			q.Lower = m.Lower
		}
		if m.HasUpper {
			q.Upper = m.Upper
		}
		n, err := t.DeleteWhere(q, nil)
		if err != nil {
			return s.sendErr(wc, err)
		}
		resp := &wire.DeleteResult{Deleted: n}
		return wc.WriteMsg(wire.MsgDeleteResult, resp.Encode())

	case wire.MsgStats:
		m, err := wire.DecodeTableName(payload)
		if err != nil {
			return err
		}
		t, err := s.Table(m.Name)
		if err != nil {
			return s.sendErr(wc, err)
		}
		return wc.WriteMsg(wire.MsgStatsResult, wire.EncodeStats(t.Metrics()))

	case wire.MsgServerStats:
		return wc.WriteMsg(wire.MsgServerStatsResult, wire.EncodeStats(s.Metrics()))

	case wire.MsgScatterQuery:
		return s.handleScatterQuery(wc, payload)

	case wire.MsgAggQuery:
		return s.handleAggQuery(wc, payload)

	case wire.MsgMigrateBegin:
		return s.handleMigrateBegin(wc, payload)

	case wire.MsgMigrateFetch:
		return s.handleMigrateFetch(wc, payload)

	case wire.MsgMigrateEnd:
		return s.handleMigrateEnd(wc, payload)

	case wire.MsgMigrateInstall:
		return s.handleMigrateInstall(wc, payload)

	default:
		return s.sendErr(wc, fmt.Errorf("server: unknown message type %d", mt))
	}
}

func (s *Server) handleInsert(wc *wire.Conn, payload []byte) error {
	m, d, err := wire.DecodeInsertHeader(payload)
	if err != nil {
		return err
	}
	t, err := s.Table(m.Table)
	if err != nil {
		return s.sendErr(wc, err)
	}
	sc := t.Schema()
	if m.SchemaVersion != sc.Version {
		return s.sendErr(wc, fmt.Errorf("server: stale schema version %d (current %d); refresh",
			m.SchemaVersion, sc.Version))
	}
	if err := m.FinishDecode(d, sc); err != nil {
		return s.sendErr(wc, err)
	}
	if m.ServerTimestamps {
		now := serverNow(t)
		for _, row := range m.Rows {
			if sc.Ts(row) == 0 {
				sc.SetTs(row, now)
			}
		}
	}
	if err := t.Insert(m.Rows); err != nil {
		return s.sendErr(wc, err)
	}
	return s.sendOK(wc)
}

func serverNow(t *core.Table) int64 {
	return t.Now()
}

func (s *Server) handleQuery(wc *wire.Conn, payload []byte) error {
	m, err := wire.DecodeQuery(payload)
	if err != nil {
		return err
	}
	t, err := s.Table(m.Table)
	if err != nil {
		return s.sendErr(wc, err)
	}
	q := core.Query{
		LowerInc:   m.LowerInc,
		UpperInc:   m.UpperInc,
		MinTs:      m.MinTs,
		MaxTs:      m.MaxTs,
		Descending: m.Descending,
	}
	if m.HasLower {
		q.Lower = m.Lower
	}
	if m.HasUpper {
		q.Upper = m.Upper
	}
	// The server enforces its own row limit and sets a more-available flag
	// when it hits it (§3.5).
	limit := s.opts.QueryRowLimit
	if m.Limit > 0 && int(m.Limit) < limit {
		limit = int(m.Limit)
	}
	it, err := t.QueryCtx(s.baseCtx, q)
	if err != nil {
		return s.sendErr(wc, err)
	}
	defer it.Close()
	// Each row is encoded the moment the cursor yields it: the iterator
	// reuses its row, and nothing but the payload outlives the loop.
	sc := t.Schema()
	resp := wire.NewRowsWriter(sc, sc.Version)
	for resp.Len() < limit && it.Next() {
		resp.Append(it.Row())
	}
	if err := it.Err(); err != nil {
		return s.sendErr(wc, err)
	}
	more := resp.Len() == limit && it.Next()
	return wc.WriteMsg(wire.MsgRows, resp.Finish(more))
}

func (s *Server) handleLatestRow(wc *wire.Conn, payload []byte) error {
	m, err := wire.DecodeLatestRow(payload)
	if err != nil {
		return err
	}
	t, err := s.Table(m.Table)
	if err != nil {
		return s.sendErr(wc, err)
	}
	row, found, err := t.LatestRow(m.Prefix)
	if err != nil {
		return s.sendErr(wc, err)
	}
	resp := &wire.RowResult{Found: found, Row: row}
	return wc.WriteMsg(wire.MsgRowResult, resp.Encode(t.Schema()))
}
