package router

import (
	"errors"
	"fmt"
	"net"
	"time"

	"littletable/internal/client"
	"littletable/internal/wire"
)

// Serve accepts and serves router connections on lis until Close.
func (r *Router) Serve(lis net.Listener) error { return r.front.Serve(lis) }

// ListenAndServe listens on addr and serves.
func (r *Router) ListenAndServe(addr string) error { return r.front.ListenAndServe(addr) }

func (r *Router) sendErr(wc *wire.Conn, err error) error {
	msg := err.Error()
	var re *client.RemoteError
	if errors.As(err, &re) {
		// Relay the shard's message as the shard sent it, not double
		// wrapped.
		msg = re.Msg
	}
	return wc.WriteError(wire.MsgError, msg)
}

func (r *Router) sendOverloaded(wc *wire.Conn, msg string) error {
	return wc.WriteError(wire.MsgOverloaded, msg)
}

// dispatch answers one request for the wire.Front, which owns the
// connection, Hello and the deadlines.
func (r *Router) dispatch(wc *wire.Conn, mt wire.MsgType, payload []byte) error {
	switch mt {
	case wire.MsgListTables:
		return r.handleListTables(wc)

	case wire.MsgServerStats:
		return r.handleServerStats(wc)

	case wire.MsgScatterQuery:
		return r.handleScatterQuery(wc, payload)

	case wire.MsgAggQuery:
		return r.handleAggQuery(wc, payload)

	case wire.MsgRouterStats:
		return wc.WriteMsg(wire.MsgRouterStatsResult, r.statsResult().Encode())

	case wire.MsgMigrateTable:
		return r.handleMigrateTable(wc, payload)
	}
	// Everything else is relayed by table name or unknown; wire.Requests
	// says which, so a new table-scoped request needs no line here.
	if req := wire.RequestOf(mt); req != nil && req.Route == wire.RouteTable {
		return r.forwardTable(wc, req, payload)
	}
	return r.sendErr(wc, fmt.Errorf("router: unknown message type %d", mt))
}

// forwardTable proxies one table-scoped request to the shard owning the
// table, relaying the response verbatim. The payload is never decoded
// beyond its leading table name, so the router works for every
// table-scoped request type — including ones newer than it.
func (r *Router) forwardTable(wc *wire.Conn, req *wire.Request, payload []byte) error {
	mt := req.Type
	table, err := wire.PeekTable(payload)
	if err != nil {
		return r.sendErr(wc, fmt.Errorf("router: bad request: %v", err))
	}
	if req.RateLimited && !r.limiter.allow(tenantOf(table), time.Now()) {
		r.stats.RateLimited.Add(1)
		return r.sendOverloaded(wc, "router: tenant rate limit exceeded; back off and retry")
	}
	done, err := r.beginTable(r.baseCtx, table)
	if err != nil {
		return r.sendErr(wc, err)
	}
	defer done()
	sh := r.shardFor(table)
	if !sh.up() {
		// Fail fast: the prober marked the shard dead, so don't burn a
		// dial timeout per request. Overloaded is honest here — the
		// request was not processed and may be retried.
		return r.sendOverloaded(wc, fmt.Sprintf("router: shard %s down; back off and retry", sh.addr))
	}
	cl, err := sh.client(r.baseCtx)
	if err != nil {
		// Dial failure: nothing was sent, so the retryable refusal applies.
		return r.sendOverloaded(wc, fmt.Sprintf("router: shard %s unreachable; back off and retry", sh.addr))
	}
	rt, resp, err := cl.Do(r.baseCtx, mt, payload)
	if err != nil {
		var re *client.RemoteError
		switch {
		case errors.As(err, &re):
			return r.sendErr(wc, err)
		case errors.Is(err, client.ErrOverloaded):
			return r.sendOverloaded(wc, fmt.Sprintf("router: shard %s overloaded; back off and retry", sh.addr))
		default:
			// Transport failure after retries. For non-idempotent requests
			// the fate is unknown, so this must be MsgError (fate unknown),
			// never the not-processed Overloaded promise.
			return r.sendErr(wc, fmt.Errorf("router: shard %s: %v", sh.addr, err))
		}
	}
	switch mt {
	case wire.MsgInsert:
		r.stats.RoutedInserts.Add(1)
	case wire.MsgQuery, wire.MsgLatestRow:
		r.stats.RoutedQueries.Add(1)
	}
	return wc.WriteMsg(rt, resp)
}

func (r *Router) handleMigrateTable(wc *wire.Conn, payload []byte) error {
	m, err := wire.DecodeMigrateTable(payload)
	if err != nil {
		return err
	}
	if err := r.Migrate(r.baseCtx, m.Table, m.TargetAddr); err != nil {
		return r.sendErr(wc, err)
	}
	return wc.WriteMsg(wire.MsgOK, nil)
}
