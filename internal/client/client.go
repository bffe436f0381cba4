// Package client is LittleTable's client adaptor — the role the SQLite
// virtual-table module plays in the paper (§3.1): it keeps persistent
// TCP connections to the server (so it notices crashes), fetches each
// table's schema and sort order once, batches inserts, pushes
// two-dimensional bounds down to the server, and transparently re-submits
// queries when the server's row limit trips the more-available flag
// (§3.5).
//
// The client is built for partial failure: requests draw connections from
// a fixed-size pool, broken connections are redialed with jittered
// exponential backoff, idempotent requests are retried across
// connections, and the server's Overloaded refusal (which promises the
// request was not processed) is retried for every request type. Rows
// buffered for insert are never dropped silently — a failed flush reports
// the unsent-row count so the application can re-read and re-insert
// (§4.1).
package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"littletable/internal/core"
	"littletable/internal/ltval"
	"littletable/internal/metric"
	"littletable/internal/schema"
	"littletable/internal/wire"
)

// DefaultBatchSize is the insert batch the client accumulates before
// sending; §1 cites batches of 512 rows as common in production.
const DefaultBatchSize = 512

// Defaults for Options zero values.
const (
	DefaultPoolSize       = 4
	DefaultDialTimeout    = 5 * time.Second
	DefaultMaxRetries     = 3
	DefaultRetryBaseDelay = 10 * time.Millisecond
	DefaultRetryMaxDelay  = time.Second
)

// Options tune the client's pool and retry policy. The zero value gets
// the defaults above.
type Options struct {
	// PoolSize caps open connections; requests beyond it wait for a free
	// connection. Default DefaultPoolSize.
	PoolSize int

	// DialTimeout bounds connect plus handshake for each new connection.
	// Default DefaultDialTimeout.
	DialTimeout time.Duration

	// RequestTimeout, when positive, is the default deadline applied to
	// each request (including its retries) that arrives without one. The
	// deadline is threaded down to the connection's read/write deadlines.
	// 0 means no default; explicit context deadlines always apply.
	RequestTimeout time.Duration

	// MaxRetries is how many times a retryable request is re-sent after a
	// failure: dial failures and Overloaded refusals for every request
	// type, post-send transport failures for idempotent requests only.
	// 0 means DefaultMaxRetries; negative disables retries.
	MaxRetries int

	// RetryBaseDelay and RetryMaxDelay shape the jittered exponential
	// backoff between retries.
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration

	// JitterSeed seeds the backoff jitter for reproducible tests; 0 seeds
	// from the clock.
	JitterSeed int64
}

func (o Options) withDefaults() Options {
	if o.PoolSize <= 0 {
		o.PoolSize = DefaultPoolSize
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = DefaultDialTimeout
	}
	switch {
	case o.MaxRetries == 0:
		o.MaxRetries = DefaultMaxRetries
	case o.MaxRetries < 0:
		o.MaxRetries = 0
	}
	if o.RetryBaseDelay <= 0 {
		o.RetryBaseDelay = DefaultRetryBaseDelay
	}
	if o.RetryMaxDelay <= 0 {
		o.RetryMaxDelay = DefaultRetryMaxDelay
	}
	return o
}

// Stats count the client's resilience events; read them with atomic Loads.
type Stats struct {
	Dials      atomic.Int64 `metric:"dials" help:"Successful connection handshakes"`
	Reconnects atomic.Int64 `metric:"reconnects" help:"Connections torn down as broken or dead; the next request redials"`
	Retries    atomic.Int64 `metric:"retries" help:"Request attempts beyond each request's first"`
	Overloaded atomic.Int64 `metric:"overloaded" help:"Overloaded refusals observed from the server"`
}

// RemoteError is an error reported by the server.
type RemoteError struct{ Msg string }

// Error implements error.
func (e *RemoteError) Error() string { return "littletable: " + e.Msg }

// UnsentError reports buffered insert rows that were never acknowledged
// by the server. Per the §4.1 contract the rows are dropped from the
// buffer — the application re-reads recent data from its source and
// re-inserts; retrying blind could duplicate rows the server did apply.
type UnsentError struct {
	// Rows is how many buffered rows went unacknowledged.
	Rows int
	// Err is the underlying failure.
	Err error
}

// Error implements error.
func (e *UnsentError) Error() string {
	return fmt.Sprintf("client: %d buffered rows unsent: %v", e.Rows, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *UnsentError) Unwrap() error { return e.Err }

// Errors returned by the client.
var (
	// ErrDisconnected reports a broken connection; the application decides
	// what recently-written data to re-read from its devices and re-insert
	// (§3.1, §4.1).
	ErrDisconnected = errors.New("client: disconnected from server")
	// ErrOverloaded reports that the server shed the request at its
	// admission gate (it was not processed) and retries were exhausted.
	ErrOverloaded = errors.New("client: server overloaded")
	// ErrClientClosed reports use after Close.
	ErrClientClosed = errors.New("client: closed")
)

// Client is a pool-backed connection to one LittleTable server. Methods
// are safe for concurrent use; up to PoolSize requests run in parallel.
type Client struct {
	opts  Options
	pool  *pool
	stats Stats

	jmu sync.Mutex
	rng *rand.Rand

	mu     sync.Mutex
	tables []*Table
	closed bool
}

// background is the root context for the compat (non-context) API.
//
//ltlint:ignore ctxprop compat shims with no caller context start here; ctx entry points thread the caller's
func background() context.Context { return context.Background() }

// Dial connects with default Options and verifies the server handshake.
func Dial(addr string) (*Client, error) {
	return DialContext(background(), addr, Options{})
}

// DialContext connects with explicit Options, establishing and
// handshaking one pooled connection eagerly so configuration and
// reachability errors surface here rather than on first use.
func DialContext(ctx context.Context, addr string, opts Options) (*Client, error) {
	opts = opts.withDefaults()
	seed := opts.JitterSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	c := &Client{
		opts: opts,
		rng:  rand.New(rand.NewSource(seed)),
	}
	c.pool = newPool(addr, opts, &c.stats)
	pc, err := c.pool.get(ctx)
	if err != nil {
		return nil, err
	}
	c.pool.put(pc, false)
	return c, nil
}

// Stats exposes the client's resilience counters.
func (c *Client) Stats() *Stats { return &c.stats }

// Close flushes every table's buffered rows, then tears down the pool.
// If buffered rows cannot be delivered it still closes, and returns an
// *UnsentError carrying the total unsent-row count — buffered data is
// never dropped silently.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	tables := append([]*Table(nil), c.tables...)
	c.mu.Unlock()

	var unsent int
	var cause error
	for _, t := range tables {
		if err := t.Flush(); err != nil {
			var ue *UnsentError
			if errors.As(err, &ue) {
				unsent += ue.Rows
				if cause == nil {
					cause = ue.Err
				}
			} else if cause == nil {
				cause = err
			}
		}
	}
	c.pool.close()
	if unsent > 0 {
		return &UnsentError{Rows: unsent, Err: cause}
	}
	return cause
}

// retryAfterSend reports whether a request that may have reached the
// server can be re-sent: only when wire.Requests classifies its type
// idempotent. ltlint's retrysafe rule checks every send primitive is
// driven by this, so a replayed write is a build failure.
func retryAfterSend(t wire.MsgType) bool {
	req := wire.RequestOf(t)
	return req != nil && req.Idempotent
}

// do sends one request with the retry policy, translating MsgError into
// *RemoteError and transport failures into ErrDisconnected.
func (c *Client) do(ctx context.Context, t wire.MsgType, payload []byte) (wire.MsgType, []byte, error) {
	if c.opts.RequestTimeout > 0 {
		if _, ok := ctx.Deadline(); !ok {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, c.opts.RequestTimeout)
			defer cancel()
		}
	}
	for attempt := 0; ; attempt++ {
		mt, resp, sent, err := c.once(ctx, t, payload)
		if err == nil {
			switch mt {
			case wire.MsgOverloaded:
				// The admission gate refused without processing; any
				// request type may retry after backing off.
				c.stats.Overloaded.Add(1)
				if attempt < c.opts.MaxRetries {
					if berr := c.backoff(ctx, attempt); berr != nil {
						return 0, nil, fmt.Errorf("%w: %v", ErrOverloaded, berr)
					}
					c.stats.Retries.Add(1)
					continue
				}
				msg := "admission gate full"
				if em, derr := wire.DecodeErrorMsg(resp); derr == nil && em.Message != "" {
					msg = em.Message
				}
				return 0, nil, fmt.Errorf("%w: %s", ErrOverloaded, msg)
			case wire.MsgError:
				em, derr := wire.DecodeErrorMsg(resp)
				if derr != nil {
					return 0, nil, derr
				}
				return 0, nil, &RemoteError{Msg: em.Message}
			}
			return mt, resp, nil
		}
		retryable := !sent || retryAfterSend(t)
		if ctx.Err() != nil || !retryable || attempt >= c.opts.MaxRetries {
			return 0, nil, err
		}
		if berr := c.backoff(ctx, attempt); berr != nil {
			return 0, nil, err
		}
		c.stats.Retries.Add(1)
	}
}

// once performs a single attempt on one pooled connection. sent reports
// whether any request bytes may have reached the server: a false return
// means the attempt is known side-effect free and always retryable.
func (c *Client) once(ctx context.Context, t wire.MsgType, payload []byte) (mt wire.MsgType, resp []byte, sent bool, err error) {
	pc, err := c.pool.get(ctx)
	if err != nil {
		return 0, nil, false, err
	}
	// Thread the context deadline down to the socket.
	if d, ok := ctx.Deadline(); ok {
		err = pc.conn.SetDeadline(d)
	} else {
		err = pc.conn.SetDeadline(time.Time{})
	}
	if err != nil {
		c.pool.put(pc, true)
		return 0, nil, false, fmt.Errorf("%w: %v", ErrDisconnected, err)
	}
	// Cancellation interrupts a blocked read/write by expiring the
	// deadline; the connection is then poisoned and discarded.
	var watch chan struct{}
	if ctx.Done() != nil {
		watch = make(chan struct{})
		//ltlint:ignore gotrack per-request watcher: stopWatch closes w before once returns, bounding its life to this call
		go func(w chan struct{}) {
			select {
			case <-ctx.Done():
				pc.conn.SetDeadline(aLongTimeAgo)
			case <-w:
			}
		}(watch)
	}
	stopWatch := func() {
		if watch != nil {
			close(watch)
			watch = nil
		}
	}

	sent = true
	werr := pc.wc.WriteMsg(t, payload)
	if werr != nil {
		stopWatch()
		if errors.Is(werr, wire.ErrFrameTooBig) {
			// Nothing was written; the conn is intact and the request is
			// simply too large.
			c.pool.put(pc, false)
			return 0, nil, false, werr
		}
		c.pool.put(pc, true)
		return 0, nil, true, c.transportErr(ctx, werr)
	}
	mt, resp, rerr := pc.wc.ReadMsg()
	stopWatch()
	if rerr != nil {
		c.pool.put(pc, true)
		return 0, nil, true, c.transportErr(ctx, rerr)
	}
	// The watcher may have poked the deadline right as the response
	// landed; put re-probes idle conns before reuse, so a poisoned
	// deadline costs a reconnect, never a wrong result.
	c.pool.put(pc, false)
	return mt, resp, true, nil
}

// transportErr wraps a mid-request failure, preferring the context's
// error when the request was cancelled or timed out by the caller.
func (c *Client) transportErr(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return fmt.Errorf("client: request aborted: %w", cerr)
	}
	// The only deadline ever set on the socket is the context's, so an
	// I/O timeout IS the caller's deadline — the socket timer can just
	// fire a tick before ctx.Done() is observable.
	if _, ok := ctx.Deadline(); ok && isTimeout(err) {
		return fmt.Errorf("client: request aborted: %w", context.DeadlineExceeded)
	}
	return fmt.Errorf("%w: %v", ErrDisconnected, err)
}

// backoff sleeps the jittered exponential delay for the given attempt,
// or returns early with the context's error.
func (c *Client) backoff(ctx context.Context, attempt int) error {
	d := c.opts.RetryBaseDelay << uint(attempt)
	if d <= 0 || d > c.opts.RetryMaxDelay {
		d = c.opts.RetryMaxDelay
	}
	// Full jitter in [d/2, d): concurrent clients desynchronize instead of
	// retrying in lockstep against a struggling server.
	c.jmu.Lock()
	d = d/2 + time.Duration(c.rng.Int63n(int64(d/2)+1))
	c.jmu.Unlock()
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// call is do for the typed methods: it also checks that the response is
// the type wire.Requests promises for t, and returns just the payload.
// The raw Do the router relays through skips the check.
func (c *Client) call(ctx context.Context, t wire.MsgType, payload []byte) ([]byte, error) {
	mt, resp, err := c.do(ctx, t, payload)
	if err != nil {
		return nil, err
	}
	if mt != wire.RequestOf(t).Response {
		return nil, fmt.Errorf("client: unexpected response type %d", mt)
	}
	return resp, nil
}

// callOK is call for requests whose success carries no payload.
func (c *Client) callOK(ctx context.Context, t wire.MsgType, payload []byte) error {
	_, err := c.call(ctx, t, payload)
	return err
}

// ListTables returns the server's table names.
func (c *Client) ListTables() ([]string, error) {
	return c.ListTablesCtx(background())
}

// ListTablesCtx is ListTables with a caller deadline.
func (c *Client) ListTablesCtx(ctx context.Context) ([]string, error) {
	resp, err := c.call(ctx, wire.MsgListTables, nil)
	if err != nil {
		return nil, err
	}
	m, err := wire.DecodeTableList(resp)
	if err != nil {
		return nil, err
	}
	return m.Names, nil
}

// ServerStats fetches the server's connection-level counters: active
// conns, in-flight requests, shed requests, drain time.
func (c *Client) ServerStats(ctx context.Context) (metric.List, error) {
	resp, err := c.call(ctx, wire.MsgServerStats, nil)
	if err != nil {
		return nil, err
	}
	return wire.DecodeStats(resp)
}

// CreateTable creates a table with the given schema and TTL (microseconds;
// 0 = never expire).
func (c *Client) CreateTable(name string, sc *schema.Schema, ttl int64) error {
	m := &wire.CreateTable{Name: name, Schema: sc, TTL: ttl}
	payload, err := m.Encode()
	if err != nil {
		return err
	}
	return c.callOK(background(), wire.MsgCreateTable, payload)
}

// DropTable removes a table and its data.
func (c *Client) DropTable(name string) error {
	m := &wire.TableName{Name: name}
	return c.callOK(background(), wire.MsgDropTable, m.Encode())
}

// Table is a handle on one remote table, carrying its cached schema.
type Table struct {
	c    *Client
	name string

	mu    sync.Mutex
	sc    *schema.Schema
	ttl   int64
	batch []schema.Row
	// BatchSize rows accumulate before an automatic Flush; set before the
	// first Insert.
	BatchSize int
	// ServerTimestamps asks the server to stamp rows whose ts cell is zero
	// with its current time (§3.1).
	ServerTimestamps bool
}

// OpenTable fetches the table's schema and returns a handle.
func (c *Client) OpenTable(name string) (*Table, error) {
	t := &Table{c: c, name: name, BatchSize: DefaultBatchSize}
	if err := t.RefreshSchema(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.tables = append(c.tables, t)
	c.mu.Unlock()
	return t, nil
}

// RefreshSchema re-fetches the schema, e.g. after a stale-schema error.
func (t *Table) RefreshSchema() error {
	m := &wire.TableName{Name: t.name}
	resp, err := t.c.call(background(), wire.MsgGetSchema, m.Encode())
	if err != nil {
		return err
	}
	sr, err := wire.DecodeSchemaResp(resp)
	if err != nil {
		return err
	}
	t.mu.Lock()
	t.sc = sr.Schema
	t.ttl = sr.TTL
	t.mu.Unlock()
	return nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the cached schema.
func (t *Table) Schema() *schema.Schema {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sc
}

// TTL returns the cached TTL.
func (t *Table) TTL() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ttl
}

// Buffered returns how many insert rows are batched but not yet sent.
func (t *Table) Buffered() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.batch)
}

// Insert buffers rows, flushing automatically at BatchSize (the adaptor
// "takes clients' inserts and transmits them to the LittleTable server in
// batches", §3.1). Call Flush to force the tail out.
func (t *Table) Insert(rows ...schema.Row) error {
	t.mu.Lock()
	t.batch = append(t.batch, rows...)
	needFlush := len(t.batch) >= t.BatchSize
	t.mu.Unlock()
	if needFlush {
		return t.Flush()
	}
	return nil
}

// Flush sends any buffered rows. On failure it returns an *UnsentError
// carrying the unacknowledged row count; the rows leave the buffer either
// way (§4.1: the application re-reads and re-inserts — a blind client-side
// replay could duplicate rows the server did apply).
func (t *Table) Flush() error { return t.FlushCtx(background()) }

// FlushCtx is Flush with a caller deadline.
func (t *Table) FlushCtx(ctx context.Context) error {
	t.mu.Lock()
	if len(t.batch) == 0 {
		t.mu.Unlock()
		return nil
	}
	rows := t.batch
	t.batch = nil
	sc := t.sc
	serverTs := t.ServerTimestamps
	t.mu.Unlock()
	m := wire.NewInsert(t.name, sc, serverTs, rows)
	if err := t.c.callOK(ctx, wire.MsgInsert, m.Encode()); err != nil {
		return &UnsentError{Rows: len(rows), Err: err}
	}
	return nil
}

// InsertNow sends rows immediately, bypassing the batch buffer.
func (t *Table) InsertNow(rows []schema.Row) error {
	return t.InsertNowCtx(background(), rows)
}

// InsertNowCtx is InsertNow with a caller deadline.
func (t *Table) InsertNowCtx(ctx context.Context, rows []schema.Row) error {
	t.mu.Lock()
	sc := t.sc
	serverTs := t.ServerTimestamps
	t.mu.Unlock()
	m := wire.NewInsert(t.name, sc, serverTs, rows)
	return t.c.callOK(ctx, wire.MsgInsert, m.Encode())
}

// Query mirrors core.Query on the client side.
type Query struct {
	Lower, Upper       []ltval.Value
	LowerInc, UpperInc bool
	MinTs, MaxTs       int64
	Descending         bool
	Limit              int
}

// NewQuery returns an all-rows query to narrow.
func NewQuery() Query {
	return Query{LowerInc: true, UpperInc: true, MinTs: core.TsMin, MaxTs: core.TsMax}
}

// Rows streams a query's results, transparently re-submitting with an
// updated start bound whenever the server's row limit sets more-available
// (§3.5).
type Rows struct {
	t      *Table
	ctx    context.Context
	q      Query
	buf    []schema.Row
	i      int
	more   bool
	row    schema.Row
	count  int
	err    error
	sc     *schema.Schema
	closed bool
}

// Query starts a streaming query.
func (t *Table) Query(q Query) *Rows {
	return t.QueryCtx(background(), q)
}

// QueryCtx starts a streaming query whose page fetches run under ctx.
func (t *Table) QueryCtx(ctx context.Context, q Query) *Rows {
	return &Rows{t: t, ctx: ctx, q: q, sc: t.Schema(), more: true}
}

// Next advances to the next result row.
func (r *Rows) Next() bool {
	if r.closed || r.err != nil {
		return false
	}
	if r.q.Limit > 0 && r.count >= r.q.Limit {
		return false
	}
	for r.i >= len(r.buf) {
		if !r.more {
			return false
		}
		if err := r.fetch(); err != nil {
			r.err = err
			return false
		}
		if len(r.buf) == 0 && !r.more {
			return false
		}
	}
	r.row = r.buf[r.i]
	r.i++
	r.count++
	return true
}

// fetch issues one wire query for the next page.
func (r *Rows) fetch() error {
	wq := &wire.Query{
		Table:      r.t.name,
		HasLower:   r.q.Lower != nil,
		Lower:      r.q.Lower,
		LowerInc:   r.q.LowerInc,
		HasUpper:   r.q.Upper != nil,
		Upper:      r.q.Upper,
		UpperInc:   r.q.UpperInc,
		MinTs:      r.q.MinTs,
		MaxTs:      r.q.MaxTs,
		Descending: r.q.Descending,
	}
	if r.q.Limit > 0 {
		remaining := r.q.Limit - r.count
		if remaining <= 0 {
			r.more = false
			r.buf, r.i = nil, 0
			return nil
		}
		wq.Limit = uint32(remaining)
	}
	resp, err := r.t.c.call(r.ctx, wire.MsgQuery, wq.Encode())
	if err != nil {
		return err
	}
	m, err := wire.DecodeRows(resp, r.sc)
	if err != nil {
		return err
	}
	r.buf, r.i = m.Rows, 0
	r.more = m.More
	if m.More && len(m.Rows) > 0 {
		// Resume past the last row: "updating the starting key bound in a
		// query to the key of the last row returned and re-submitting"
		// (§3.5).
		last := m.Rows[len(m.Rows)-1]
		k := r.sc.KeyOf(last)
		if r.q.Descending {
			r.q.Upper = k
			r.q.UpperInc = false
		} else {
			r.q.Lower = k
			r.q.LowerInc = false
		}
	}
	return nil
}

// Row returns the current row; valid after Next reports true.
func (r *Rows) Row() schema.Row { return r.row }

// Err returns the first error hit while streaming.
func (r *Rows) Err() error { return r.err }

// Close ends the stream early.
func (r *Rows) Close() error {
	r.closed = true
	return nil
}

// All materializes the full result.
func (r *Rows) All() ([]schema.Row, error) {
	var out []schema.Row
	for r.Next() {
		out = append(out, r.Row())
	}
	if r.err != nil {
		return nil, r.err
	}
	return out, nil
}

// LatestRow fetches the most recent row whose key starts with prefix.
func (t *Table) LatestRow(prefix []ltval.Value) (schema.Row, bool, error) {
	return t.LatestRowCtx(background(), prefix)
}

// LatestRowCtx is LatestRow with a caller deadline.
func (t *Table) LatestRowCtx(ctx context.Context, prefix []ltval.Value) (schema.Row, bool, error) {
	m := &wire.LatestRow{Table: t.name, Prefix: prefix}
	resp, err := t.c.call(ctx, wire.MsgLatestRow, m.Encode())
	if err != nil {
		return nil, false, err
	}
	rr, err := wire.DecodeRowResult(resp, t.Schema())
	if err != nil {
		return nil, false, err
	}
	return rr.Row, rr.Found, nil
}

// DeleteRange bulk-deletes every row inside the query's box (the §7
// privacy-compliance delete). The Descending and Limit fields are ignored.
// It returns the number of rows removed.
func (t *Table) DeleteRange(q Query) (int64, error) {
	m := &wire.Delete{
		Table:    t.name,
		HasLower: q.Lower != nil,
		Lower:    q.Lower,
		LowerInc: q.LowerInc,
		HasUpper: q.Upper != nil,
		Upper:    q.Upper,
		UpperInc: q.UpperInc,
		MinTs:    q.MinTs,
		MaxTs:    q.MaxTs,
	}
	resp, err := t.c.call(background(), wire.MsgDelete, m.Encode())
	if err != nil {
		return 0, err
	}
	dr, err := wire.DecodeDeleteResult(resp)
	if err != nil {
		return 0, err
	}
	return dr.Deleted, nil
}

// AlterTTL changes the table's TTL.
func (t *Table) AlterTTL(ttl int64) error {
	m := &wire.AlterTTL{Table: t.name, TTL: ttl}
	if err := t.c.callOK(background(), wire.MsgAlterTTL, m.Encode()); err != nil {
		return err
	}
	t.mu.Lock()
	t.ttl = ttl
	t.mu.Unlock()
	return nil
}

// AddColumn appends a column and refreshes the cached schema.
func (t *Table) AddColumn(name string, typ ltval.Type, def ltval.Value) error {
	m := &wire.AddColumn{Table: t.name, Name: name, Type: typ, Default: def}
	if err := t.c.callOK(background(), wire.MsgAddColumn, m.Encode()); err != nil {
		return err
	}
	return t.RefreshSchema()
}

// WidenColumn widens an int32 column and refreshes the cached schema.
func (t *Table) WidenColumn(name string) error {
	m := &wire.WidenColumn{Table: t.name, Name: name}
	if err := t.c.callOK(background(), wire.MsgWidenColumn, m.Encode()); err != nil {
		return err
	}
	return t.RefreshSchema()
}

// FlushTable asks the server to flush the table's memtables to disk — the
// explicit flush §4.1.2 proposes so aggregators can know their source rows
// are durable.
func (t *Table) FlushTable() error {
	m := &wire.TableName{Name: t.name}
	return t.c.callOK(background(), wire.MsgFlushTable, m.Encode())
}

// Stats fetches the table's server-side metrics: the list core.Table's
// Metrics returns, keyed by name.
func (t *Table) Stats() (metric.List, error) {
	m := &wire.TableName{Name: t.name}
	resp, err := t.c.call(background(), wire.MsgStats, m.Encode())
	if err != nil {
		return nil, err
	}
	return wire.DecodeStats(resp)
}
