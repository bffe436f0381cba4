package wire

import (
	"encoding/binary"

	"littletable/internal/core"
	"littletable/internal/metric"
	"littletable/internal/schema"
)

// Router and migration messages.
//
// The shard router (ROADMAP item 2) speaks the same protocol as a single
// littletabled: every table-scoped request routes unchanged to the table's
// owner shard. The messages here are the additions that only make sense
// once there is more than one process: a prefix scatter query that fans
// out across tables (and, through the router, across shards), the
// tablet-shipping migration protocol (§5's prefix durability makes sealed
// tablets the natural replication unit — there is no WAL to replicate),
// and router-level stats.

// ScatterQuery asks for one bounded query evaluated against EVERY table
// whose name starts with Prefix. A single littletabled answers for its
// local tables; the router fans the same message out to all shards and
// concatenates. The key bounds and limits apply per table: the box's
// Limit caps rows returned per table (0 = server default).
type ScatterQuery struct {
	Prefix string
	core.Query
	// MaxTables caps how many matching tables are scanned (0 = no cap);
	// tables are taken in sorted name order so the cap is deterministic.
	MaxTables uint32
}

func (m *ScatterQuery) fields(c *codec) {
	c.str(&m.Prefix)
	c.box(&m.Query, true)
	c.u32(&m.MaxTables)
}

// ScatterTableRows is one table's slice of a scatter-query result. Each
// section carries its own schema: scatter queries span tables that share a
// shape by convention (one table per customer/device-class, §2.2), but the
// protocol does not assume it.
type ScatterTableRows struct {
	Table  string
	Schema *schema.Schema
	More   bool // this table tripped its row limit; re-query it directly
	Rows   []schema.Row
}

// ScatterRows answers a ScatterQuery: one section per matching table, in
// sorted table-name order. Truncated reports that MaxTables cut the table
// list short.
type ScatterRows struct {
	Truncated bool
	Tables    []ScatterTableRows
}

// Encode serializes the message payload.
func (m *ScatterRows) Encode() ([]byte, error) {
	w := NewScatterRowsWriter(m.Truncated)
	for i := range m.Tables {
		s := &m.Tables[i]
		if err := w.BeginTable(s.Table, s.Schema); err != nil {
			return nil, err
		}
		for _, r := range s.Rows {
			w.Append(r)
		}
		w.EndTable(s.More)
	}
	return w.Finish(), nil
}

// ScatterRowsWriter builds a ScatterRows payload a section and a row at a
// time, for the same reason RowsWriter exists.
type ScatterRowsWriter struct {
	b      Buf
	tables uint32
	rb     rowBatch // the open section's rows
}

// NewScatterRowsWriter starts a ScatterRows payload.
func NewScatterRowsWriter(truncated bool) *ScatterRowsWriter {
	w := &ScatterRowsWriter{}
	w.b.Bool(truncated)
	w.b.U32(0) // section count, patched by Finish
	return w
}

// BeginTable opens table's section; its rows are encoded under sc.
func (w *ScatterRowsWriter) BeginTable(table string, sc *schema.Schema) error {
	w.b.String(table)
	if err := w.b.Schema(sc); err != nil {
		return err
	}
	w.rb = w.b.beginRowBatch(sc)
	w.tables++
	return nil
}

// Append encodes row into the open section; the caller may reuse it
// afterwards.
func (w *ScatterRowsWriter) Append(row schema.Row) { w.rb.append(&w.b, row) }

// Len returns the number of rows in the open section.
func (w *ScatterRowsWriter) Len() int { return w.rb.n }

// EndTable closes the open section with its more-available flag.
func (w *ScatterRowsWriter) EndTable(more bool) { w.rb.end(&w.b, more) }

// Finish returns the payload.
func (w *ScatterRowsWriter) Finish() []byte {
	binary.LittleEndian.PutUint32(w.b.B[1:], w.tables)
	return w.b.B
}

// DecodeScatterRows parses a ScatterRows payload.
func DecodeScatterRows(p []byte) (*ScatterRows, error) {
	d := Dec{B: p}
	m := &ScatterRows{Truncated: d.Bool()}
	n := int(d.U32())
	if d.Err == nil && n > len(d.B) {
		d.fail("scatter tables count")
	}
	for i := 0; i < n && d.Err == nil; i++ {
		s := ScatterTableRows{Table: d.String(), Schema: d.Schema()}
		s.More = d.Bool()
		if d.Err != nil {
			break
		}
		s.Rows = d.Rows(s.Schema)
		m.Tables = append(m.Tables, s)
	}
	return m, d.Done()
}

// --- migration: shipping sealed tablets between shards ---

// MigrateBegin freezes a table for export on the source shard: memtables
// are flushed, maintenance (merges, TTL expiry) is held so the tablet set
// only grows, and the current tablets are pinned so their files survive
// until MigrateEnd. Re-sending replaces the previous export snapshot while
// keeping the hold — the cutover pass reuses it to pick up tablets flushed
// since the first pass.
type MigrateBegin struct {
	Table string
}

func (m *MigrateBegin) fields(c *codec) { c.str(&m.Table) }

// MigrateTabletInfo describes one pinned sealed tablet available to fetch.
type MigrateTabletInfo struct {
	File     string
	Seq      uint64
	RowCount int64
	MinTs    int64
	MaxTs    int64
	Bytes    int64
}

// MigrateManifest answers MigrateBegin: the table's schema and TTL plus
// every pinned tablet.
type MigrateManifest struct {
	Schema  *schema.Schema
	TTL     int64
	Tablets []MigrateTabletInfo
}

func (m *MigrateManifest) fields(c *codec) {
	c.schema(&m.Schema)
	c.i64(&m.TTL)
	for i := range list(c, &m.Tablets, 4+5*8) {
		t := &m.Tablets[i]
		c.str(&t.File)
		c.u64(&t.Seq)
		c.i64(&t.RowCount)
		c.i64(&t.MinTs)
		c.i64(&t.MaxTs)
		c.i64(&t.Bytes)
	}
}

// MigrateFetch reads MaxBytes bytes of a pinned tablet file at Offset.
// Reads are stateless and idempotent; any connection may carry any chunk.
type MigrateFetch struct {
	Table    string
	File     string
	Offset   int64
	MaxBytes uint32
}

func (m *MigrateFetch) fields(c *codec) {
	c.str(&m.Table)
	c.str(&m.File)
	c.i64(&m.Offset)
	c.u32(&m.MaxBytes)
}

// MigrateChunk answers MigrateFetch: Total is the file size, Data the
// bytes at the requested offset (short only at end of file).
type MigrateChunk struct {
	Total int64
	Data  []byte
}

func (m *MigrateChunk) fields(c *codec) {
	c.i64(&m.Total)
	c.blob(&m.Data)
}

// MigrateEnd releases a table's export snapshot and maintenance hold on
// the source shard. Idempotent: ending a table with no export is OK.
type MigrateEnd struct {
	Table string
}

func (m *MigrateEnd) fields(c *codec) { c.str(&m.Table) }

// MigrateInstall ships one chunk of a sealed tablet to the target shard.
// Chunks of a file arrive in offset order into a staging buffer keyed by
// (table, file); Offset must equal the bytes staged so far (an offset-0
// chunk restarts the file, making a failed transfer restartable). When
// Commit is set the staged bytes are validated — footer parsed, every
// block checksum verified — and atomically installed into the table under
// a fresh tablet sequence with a descriptor commit.
type MigrateInstall struct {
	Table    string
	File     string // source-side file name; staging key only
	Offset   int64
	Total    int64
	RowCount int64
	MinTs    int64
	MaxTs    int64
	Commit   bool
	Data     []byte
}

func (m *MigrateInstall) fields(c *codec) {
	c.str(&m.Table)
	c.str(&m.File)
	c.i64(&m.Offset)
	c.i64(&m.Total)
	c.i64(&m.RowCount)
	c.i64(&m.MinTs)
	c.i64(&m.MaxTs)
	c.boolean(&m.Commit)
	c.blob(&m.Data)
}

// PeekTable extracts the table name from any table-scoped request
// payload without decoding the rest. Every table-scoped message starts
// with the length-prefixed table name precisely so a router can route on
// it and forward the bytes untouched.
func PeekTable(p []byte) (string, error) {
	d := Dec{B: p}
	name := d.String()
	if d.Err != nil {
		return "", d.Err
	}
	return name, nil
}

// MigrateTable is a router-only control message: move a table to the
// shard at TargetAddr by shipping its sealed tablets, then flip placement
// and drop the source copy. The router answers OK when the table is fully
// served from the target.
type MigrateTable struct {
	Table      string
	TargetAddr string
}

func (m *MigrateTable) fields(c *codec) {
	c.str(&m.Table)
	c.str(&m.TargetAddr)
}

// RouterShardInfo is one shard's health as the router sees it.
type RouterShardInfo struct {
	Addr string
	// State is the router's health verdict: 0 up, 1 draining, 2 down.
	State uint8
}

// RouterStatsResult carries the router's counters and per-shard health.
type RouterStatsResult struct {
	Counters metric.List
	Shards   []RouterShardInfo
}

func (m *RouterStatsResult) fields(c *codec) {
	c.stats(&m.Counters)
	for i := range list(c, &m.Shards, 4+1) {
		c.str(&m.Shards[i].Addr)
		c.u8(&m.Shards[i].State)
	}
}
