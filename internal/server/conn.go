package server

import (
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"littletable/internal/core"
	"littletable/internal/schema"
	"littletable/internal/wire"
)

// timeoutConn arms a fresh deadline before every Read and Write, so a
// stalled peer (half-open TCP, a client that stopped reading its results)
// is dropped instead of pinning a handler goroutine forever. Zero timeouts
// disable the corresponding deadline.
type timeoutConn struct {
	net.Conn
	readTimeout  time.Duration
	writeTimeout time.Duration
}

func (c *timeoutConn) Read(p []byte) (int, error) {
	if c.readTimeout > 0 {
		if err := c.Conn.SetReadDeadline(time.Now().Add(c.readTimeout)); err != nil {
			return 0, err
		}
	}
	return c.Conn.Read(p)
}

func (c *timeoutConn) Write(p []byte) (int, error) {
	if c.writeTimeout > 0 {
		if err := c.Conn.SetWriteDeadline(time.Now().Add(c.writeTimeout)); err != nil {
			return 0, err
		}
	}
	return c.Conn.Write(p)
}

// isTimeout reports whether err is a deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// handleConn serves one client session: a loop of request/response pairs.
// The client keeps the connection persistent to detect server crashes
// (§3.1). The connState's busy flag brackets each request so Shutdown can
// wait for in-flight responses without pinning idle connections.
func (s *Server) handleConn(conn net.Conn, st *connState) {
	defer conn.Close()
	wc := wire.NewConn(&timeoutConn{
		Conn:         conn,
		readTimeout:  s.opts.ReadTimeout,
		writeTimeout: s.opts.WriteTimeout,
	})
	wc.SetReadLimit(s.opts.MaxRequestBytes)
	for {
		mt, payload, err := wc.ReadMsg()
		if err != nil {
			switch {
			case errors.Is(err, io.EOF), errors.Is(err, net.ErrClosed):
			case isTimeout(err):
				s.stats.ConnsDroppedDeadline.Add(1)
				s.opts.Logf("littletable: dropping %s: read deadline expired", conn.RemoteAddr())
			case errors.Is(err, wire.ErrFrameTooBig):
				s.stats.ConnsDroppedOversize.Add(1)
				s.opts.Logf("littletable: dropping %s: oversized request frame", conn.RemoteAddr())
			default:
				s.opts.Logf("littletable: read: %v", err)
			}
			return
		}
		st.busy.Store(true)
		err = s.serveRequest(wc, mt, payload)
		st.busy.Store(false)
		if err != nil {
			// Transport errors end the session; request errors were already
			// reported to the client inline.
			if isTimeout(err) {
				s.stats.ConnsDroppedDeadline.Add(1)
				s.opts.Logf("littletable: dropping %s: write deadline expired", conn.RemoteAddr())
			} else {
				s.opts.Logf("littletable: conn: %v", err)
			}
			return
		}
		if s.draining.Load() {
			// The response above completed; end the session so Shutdown
			// converges. The client's pool sees a clean close between
			// requests, never a truncated response.
			return
		}
	}
}

// serveRequest applies the admission gate, then dispatches. Beyond
// MaxInFlight the request is refused with a wire-level Overloaded reply —
// distinct from MsgError because it promises the request was NOT
// processed, making a backoff-and-retry safe even for inserts.
func (s *Server) serveRequest(wc *wire.Conn, mt wire.MsgType, payload []byte) error {
	n := s.stats.RequestsInFlight.Add(1)
	defer s.stats.RequestsInFlight.Add(-1)
	if max := s.opts.MaxInFlight; max > 0 && n > int64(max) {
		s.stats.RequestsShed.Add(1)
		m := &wire.ErrorMsg{Message: "server: overloaded, request shed; back off and retry"}
		return wc.WriteMsg(wire.MsgOverloaded, m.Encode())
	}
	return s.dispatch(wc, mt, payload)
}

func (s *Server) sendErr(wc *wire.Conn, err error) error {
	m := &wire.ErrorMsg{Message: err.Error()}
	return wc.WriteMsg(wire.MsgError, m.Encode())
}

func (s *Server) sendOK(wc *wire.Conn) error {
	return wc.WriteMsg(wire.MsgOK, nil)
}

func (s *Server) dispatch(wc *wire.Conn, mt wire.MsgType, payload []byte) error {
	switch mt {
	case wire.MsgHello:
		h, err := wire.DecodeHello(payload)
		if err != nil {
			return err
		}
		if h.Version != wire.ProtocolVersion {
			return s.sendErr(wc, fmt.Errorf("server: protocol version %d unsupported", h.Version))
		}
		return s.sendOK(wc)

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
