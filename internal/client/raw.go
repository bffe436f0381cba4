package client

import (
	"context"

	"littletable/internal/wire"
)

// Do sends one already-encoded request through the pool's retry policy
// and returns the raw response. It is the router's proxy primitive: the
// router routes on the table name inside the payload and forwards the
// bytes untouched, so every request type the server learns works through
// the router without a matching typed client method. The retry
// classification (retryAfterSend) still applies by message type.
func (c *Client) Do(ctx context.Context, t wire.MsgType, payload []byte) (wire.MsgType, []byte, error) {
	return c.do(ctx, t, payload)
}

// ScatterQuery runs one prefix query against every matching table on the
// server (MsgScatterQuery); the router fans this out per shard and
// merges the sections.
func (c *Client) ScatterQuery(ctx context.Context, q *wire.ScatterQuery) (*wire.ScatterRows, error) {
	resp, err := c.call(ctx, wire.MsgScatterQuery, q.Encode())
	if err != nil {
		return nil, err
	}
	return wire.DecodeScatterRows(resp)
}

// AggQuery folds every matching table's rows into grouped aggregate
// states on the server (MsgAggQuery) and returns the partials
// (MsgAggResult); only O(groups) state crosses the wire, never the raw
// rows. Against a router, the partials have already been merged across
// shards. Use agg.Finalize to turn the mergeable states into values.
func (c *Client) AggQuery(ctx context.Context, q *wire.AggQuery) (*wire.AggResult, error) {
	resp, err := c.call(ctx, wire.MsgAggQuery, q.Encode())
	if err != nil {
		return nil, err
	}
	return wire.DecodeAggResult(resp)
}

// MigrateBegin freezes and pins a table's sealed tablets on the server
// and returns the manifest to copy. Pair with MigrateEnd.
func (c *Client) MigrateBegin(ctx context.Context, table string) (*wire.MigrateManifest, error) {
	m := &wire.MigrateBegin{Table: table}
	resp, err := c.call(ctx, wire.MsgMigrateBegin, m.Encode())
	if err != nil {
		return nil, err
	}
	return wire.DecodeMigrateManifest(resp)
}

// MigrateFetch reads up to maxBytes of one pinned tablet's image at the
// given offset. The returned chunk carries the file's total size.
func (c *Client) MigrateFetch(ctx context.Context, table, file string, off int64, maxBytes uint32) (*wire.MigrateChunk, error) {
	m := &wire.MigrateFetch{Table: table, File: file, Offset: off, MaxBytes: maxBytes}
	resp, err := c.call(ctx, wire.MsgMigrateFetch, m.Encode())
	if err != nil {
		return nil, err
	}
	return wire.DecodeMigrateChunk(resp)
}

// MigrateInstall stages one chunk of a tablet image on the target
// server; the Commit chunk verifies and attaches the tablet. Installs
// are deliberately NOT retried after an unacknowledged send — a replayed
// chunk would corrupt the offset discipline; the driver restarts the
// file at offset 0 instead.
func (c *Client) MigrateInstall(ctx context.Context, m *wire.MigrateInstall) error {
	return c.callOK(ctx, wire.MsgMigrateInstall, m.Encode())
}

// MigrateEnd releases the export pins taken by MigrateBegin (source
// side) and any staged install buffers for the table (target side).
func (c *Client) MigrateEnd(ctx context.Context, table string) error {
	m := &wire.MigrateEnd{Table: table}
	return c.callOK(ctx, wire.MsgMigrateEnd, m.Encode())
}

// RouterStats fetches a router's routing counters and per-shard health
// (MsgRouterStats). The message is router-only: a plain server bounces
// it as an unknown type, so call this on a connection to a router.
func (c *Client) RouterStats(ctx context.Context) (*wire.RouterStatsResult, error) {
	resp, err := c.call(ctx, wire.MsgRouterStats, nil)
	if err != nil {
		return nil, err
	}
	return wire.DecodeRouterStatsResult(resp)
}
