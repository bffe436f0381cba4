// Package littletable is a Go implementation of LittleTable, the
// time-series relational database described in:
//
//	Sean Rhea, Eric Wang, Edmund Wong, Ethan Atkins, Nat Storer.
//	"LittleTable: A Time-Series Database and Its Uses." SIGMOD 2017.
//
// LittleTable clusters each table in two dimensions — partitioning rows
// into tablets by timestamp and sorting within each tablet by a
// hierarchically-delineated primary key whose final column is the
// timestamp — so that any rectangle of (key range × time range) is mostly
// contiguous on disk. It trades the consistency and durability guarantees
// conventional databases provide for the much weaker ones time-series
// workloads need (single-writer, append-only, recently-written data
// re-readable from its source), eliminating the write-ahead log and most
// locking.
//
// The package re-exports the user-facing surface of the implementation:
//
//   - Server and Client/ClientTable: the TCP server process and the
//     client adaptor (the paper pairs a server with an SQLite
//     virtual-table module; here the adaptor is native Go).
//   - Table/Options/Query: the embedded engine, for running LittleTable
//     in-process the way tests, benchmarks, and single-binary deployments
//     do.
//   - Schema/Column/Row/Value: the relational model — int32, int64,
//     double, timestamp (microseconds since the Unix epoch), string, and
//     blob columns, no NULLs.
//   - SQLEngine: the SQL front end (CREATE/DROP/ALTER TABLE, INSERT,
//     SELECT with aggregates, GROUP BY, ORDER BY, LIMIT, and the SELECT
//     LATEST and FLUSH TABLE extensions).
//   - AggSpec/AggQuery/RollupRule: server-side streaming aggregation
//     (Client.AggQuery ships O(groups) mergeable states, not rows) and
//     continuous downsampling rules the maintenance loop executes.
//
// See examples/quickstart for an end-to-end walkthrough, and DESIGN.md for
// the mapping from the paper's sections to packages.
package littletable

import (
	"context"

	"littletable/internal/agg"
	"littletable/internal/client"
	"littletable/internal/clock"
	"littletable/internal/core"
	"littletable/internal/ltval"
	"littletable/internal/schema"
	"littletable/internal/server"
	"littletable/internal/sql"
	"littletable/internal/wire"
)

// Value model.
type (
	// Value is a single cell.
	Value = ltval.Value
	// Type identifies a column type.
	Type = ltval.Type
	// Column describes one column of a schema.
	Column = schema.Column
	// Schema describes a table layout; the final primary-key column must
	// be a timestamp named "ts".
	Schema = schema.Schema
	// Row is one row's cells in schema order.
	Row = schema.Row
)

// Column types.
const (
	Int32     = ltval.Int32
	Int64     = ltval.Int64
	Double    = ltval.Double
	Timestamp = ltval.Timestamp
	String    = ltval.String
	Blob      = ltval.Blob
)

// Value constructors.
var (
	NewInt32     = ltval.NewInt32
	NewInt64     = ltval.NewInt64
	NewDouble    = ltval.NewDouble
	NewTimestamp = ltval.NewTimestamp
	NewString    = ltval.NewString
	NewBlob      = ltval.NewBlob
)

// NewSchema builds and validates a schema from columns and primary-key
// column names (in key order; the last must be the "ts" timestamp).
func NewSchema(cols []Column, key []string) (*Schema, error) {
	return schema.New(cols, key)
}

// MustSchema is NewSchema, panicking on error.
func MustSchema(cols []Column, key []string) *Schema {
	return schema.MustNew(cols, key)
}

// Engine (embedded) surface.
type (
	// Table is one open LittleTable table.
	Table = core.Table
	// Options tune a table; the zero value gives the paper's defaults
	// (16 MB flushes, 10-minute flush age, 128 MB max tablets, 90 s merge
	// delay, 64 kB blocks, compression and Bloom filters on).
	Options = core.Options
	// Query is a two-dimensional bounding box: primary-key bounds (or
	// prefixes) × timestamp bounds. Embedded tables and the wire client
	// take the same Query.
	Query = core.Query
	// Iterator streams a query's results.
	Iterator = core.Iterator
	// Stats are per-table counters.
	Stats = core.Stats
)

// CreateTable makes a new table directory under root. ttl is the row
// time-to-live in microseconds; 0 retains rows forever.
func CreateTable(root, name string, sc *Schema, ttl int64, opts Options) (*Table, error) {
	return core.CreateTable(root, name, sc, ttl, opts)
}

// OpenTable opens an existing table, recovering from any crash.
func OpenTable(root, name string, opts Options) (*Table, error) {
	return core.OpenTable(root, name, opts)
}

// NewQuery returns a query matching every row, for narrowing.
func NewQuery() Query { return core.NewQuery() }

// Time helpers: engine timestamps are int64 microseconds since the epoch.
const (
	Microsecond = clock.Microsecond
	Millisecond = clock.Millisecond
	Second      = clock.Second
	Minute      = clock.Minute
	Hour        = clock.Hour
	Day         = clock.Day
	Week        = clock.Week
)

// Now returns the current time in engine microseconds.
func Now() int64 { return clock.Real{}.Now() }

// Server surface.
type (
	// Server owns a directory of tables and serves the wire protocol.
	Server = server.Server
	// ServerOptions configure a Server.
	ServerOptions = server.Options
)

// NewServer opens (or creates) a data directory, recovers its tables, and
// starts background maintenance. Call Serve or ListenAndServe to accept
// clients, or use Server.Table for in-process access.
func NewServer(opts ServerOptions) (*Server, error) { return server.New(opts) }

// Client surface.
type (
	// Client is a pool-aware connection to a LittleTable server: health-
	// checked reconnects, bounded retries with jittered backoff, and
	// per-request context deadlines threaded down to socket deadlines.
	Client = client.Client
	// ClientOptions tune the pool and retry policy; the zero value gives
	// the defaults (pool of 4, 5 s dial timeout, 3 retries).
	ClientOptions = client.Options
	// ClientStats count the client's resilience events: dials, reconnects,
	// retries, and Overloaded refusals.
	ClientStats = client.Stats
	// ClientTable is a remote table handle with insert batching and
	// transparent query pagination.
	ClientTable = client.Table
	// RemoteError is a server-reported request failure.
	RemoteError = client.RemoteError
	// UnsentError reports buffered insert rows that were never delivered —
	// the §4.1 contract: the application re-reads and re-inserts them.
	UnsentError = client.UnsentError
)

// Client failure modes, distinguishable with errors.Is.
var (
	// ErrClientDisconnected: the request failed at the transport and, if it
	// was not safe to retry, may or may not have been applied.
	ErrClientDisconnected = client.ErrDisconnected
	// ErrClientOverloaded: the server shed the request without processing
	// it; retrying (after backoff) is always safe.
	ErrClientOverloaded = client.ErrOverloaded
	// ErrClientClosed: the Client was closed.
	ErrClientClosed = client.ErrClientClosed
)

// Dial connects to a LittleTable server with default ClientOptions.
func Dial(addr string) (*Client, error) { return client.Dial(addr) }

// DialClient connects to a LittleTable server with explicit pool and
// retry options; ctx bounds the initial dial.
func DialClient(ctx context.Context, addr string, opts ClientOptions) (*Client, error) {
	return client.DialContext(ctx, addr, opts)
}

// Server-side aggregation and continuous downsampling (DESIGN.md §16).
type (
	// AggSpec describes one streaming aggregation: a time-bucket width,
	// how many leading key columns to group by, and the aggregates.
	AggSpec = agg.Spec
	// Agg is one aggregate function applied to one column.
	Agg = agg.Agg
	// AggFunc identifies an aggregate function.
	AggFunc = agg.Func
	// AggGroup is one (bucket × key) group of mergeable partial states.
	AggGroup = agg.Group
	// AggOutput is one finalized group: bucket, key, and one value per
	// aggregate in spec order.
	AggOutput = agg.Output
	// AggQuery asks a server (or router) to fold every prefix-matched
	// table's rows into grouped aggregate states; send it with
	// Client.AggQuery. Only O(groups) state crosses the wire.
	AggQuery = wire.AggQuery
	// AggResult carries the merged groups back; finalize with FinalizeAgg.
	AggResult = wire.AggResult
	// RollupRule continuously downsamples a table into a destination
	// table; install with Table.SetRollups and the server's maintenance
	// loop executes it with crash-consistent, exactly-once semantics.
	RollupRule = core.RollupRule
)

// Aggregate functions.
const (
	AggCount    = agg.Count
	AggSum      = agg.Sum
	AggMin      = agg.Min
	AggMax      = agg.Max
	AggAvg      = agg.Avg
	AggQuantile = agg.Quantile
)

var (
	// FinalizeAgg turns mergeable group states into final values
	// (avg = sum/count, quantiles from the sketch).
	FinalizeAgg = agg.Finalize
	// MergeAggGroups merges two sorted partial-group lists; merging
	// partials then finalizing equals folding the union.
	MergeAggGroups = agg.MergeGroups
)

// SQL surface.
type (
	// SQLEngine executes SQL statements against a backend.
	SQLEngine = sql.Engine
	// SQLResult is a statement's materialized output.
	SQLResult = sql.Result
)

// NewSQLOverServer returns a SQL engine executing in-process against s.
func NewSQLOverServer(s *Server) *SQLEngine {
	return sql.NewEngine(&sql.ServerBackend{S: s})
}

// NewSQLOverClient returns a SQL engine executing over the wire through c.
func NewSQLOverClient(c *Client) *SQLEngine {
	return sql.NewEngine(&sql.ClientBackend{C: c})
}
