package wire

import (
	"encoding/binary"

	"littletable/internal/ltval"
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
// concatenates. The key bounds and limits apply per table.
type ScatterQuery struct {
	Prefix             string
	Lower, Upper       []ltval.Value
	HasLower, HasUpper bool
	LowerInc, UpperInc bool
	MinTs, MaxTs       int64
	Descending         bool
	// PerTableLimit caps rows returned per table (0 = server default).
	PerTableLimit uint32
	// MaxTables caps how many matching tables are scanned (0 = no cap);
	// tables are taken in sorted name order so the cap is deterministic.
	MaxTables uint32
}

// Encode serializes the message payload.
func (m *ScatterQuery) Encode() []byte {
	var b Buf
	b.String(m.Prefix)
	b.Bool(m.HasLower)
	b.Values(m.Lower)
	b.Bool(m.LowerInc)
	b.Bool(m.HasUpper)
	b.Values(m.Upper)
	b.Bool(m.UpperInc)
	b.I64(m.MinTs)
	b.I64(m.MaxTs)
	b.Bool(m.Descending)
	b.U32(m.PerTableLimit)
	b.U32(m.MaxTables)
	return b.B
}

// DecodeScatterQuery parses a ScatterQuery payload.
func DecodeScatterQuery(p []byte) (*ScatterQuery, error) {
	d := Dec{B: p}
	m := &ScatterQuery{Prefix: d.String(), HasLower: d.Bool()}
	m.Lower = d.Values()
	m.LowerInc = d.Bool()
	m.HasUpper = d.Bool()
	m.Upper = d.Values()
	m.UpperInc = d.Bool()
	m.MinTs = d.I64()
	m.MaxTs = d.I64()
	m.Descending = d.Bool()
	m.PerTableLimit = d.U32()
	m.MaxTables = d.U32()
	return m, d.Done()
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

// Encode serializes the message payload.
func (m *MigrateBegin) Encode() []byte {
	var b Buf
	b.String(m.Table)
	return b.B
}

// DecodeMigrateBegin parses a MigrateBegin payload.
func DecodeMigrateBegin(p []byte) (*MigrateBegin, error) {
	d := Dec{B: p}
	m := &MigrateBegin{Table: d.String()}
	return m, d.Done()
}

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

// Encode serializes the message payload.
func (m *MigrateManifest) Encode() ([]byte, error) {
	var b Buf
	if err := b.Schema(m.Schema); err != nil {
		return nil, err
	}
	b.I64(m.TTL)
	b.U32(uint32(len(m.Tablets)))
	for _, t := range m.Tablets {
		b.String(t.File)
		b.U64(t.Seq)
		b.I64(t.RowCount)
		b.I64(t.MinTs)
		b.I64(t.MaxTs)
		b.I64(t.Bytes)
	}
	return b.B, nil
}

// DecodeMigrateManifest parses a MigrateManifest payload.
func DecodeMigrateManifest(p []byte) (*MigrateManifest, error) {
	d := Dec{B: p}
	m := &MigrateManifest{Schema: d.Schema(), TTL: d.I64()}
	n := int(d.U32())
	if d.Err == nil && n > len(d.B) {
		d.fail("manifest tablets count")
	}
	for i := 0; i < n && d.Err == nil; i++ {
		m.Tablets = append(m.Tablets, MigrateTabletInfo{
			File:     d.String(),
			Seq:      d.U64(),
			RowCount: d.I64(),
			MinTs:    d.I64(),
			MaxTs:    d.I64(),
			Bytes:    d.I64(),
		})
	}
	return m, d.Done()
}

// MigrateFetch reads MaxBytes bytes of a pinned tablet file at Offset.
// Reads are stateless and idempotent; any connection may carry any chunk.
type MigrateFetch struct {
	Table    string
	File     string
	Offset   int64
	MaxBytes uint32
}

// Encode serializes the message payload.
func (m *MigrateFetch) Encode() []byte {
	var b Buf
	b.String(m.Table)
	b.String(m.File)
	b.I64(m.Offset)
	b.U32(m.MaxBytes)
	return b.B
}

// DecodeMigrateFetch parses a MigrateFetch payload.
func DecodeMigrateFetch(p []byte) (*MigrateFetch, error) {
	d := Dec{B: p}
	m := &MigrateFetch{Table: d.String(), File: d.String(), Offset: d.I64(), MaxBytes: d.U32()}
	return m, d.Done()
}

// MigrateChunk answers MigrateFetch: Total is the file size, Data the
// bytes at the requested offset (short only at end of file).
type MigrateChunk struct {
	Total int64
	Data  []byte
}

// Encode serializes the message payload.
func (m *MigrateChunk) Encode() []byte {
	var b Buf
	b.I64(m.Total)
	b.Bytes(m.Data)
	return b.B
}

// DecodeMigrateChunk parses a MigrateChunk payload.
func DecodeMigrateChunk(p []byte) (*MigrateChunk, error) {
	d := Dec{B: p}
	m := &MigrateChunk{Total: d.I64(), Data: d.Bytes()}
	return m, d.Done()
}

// MigrateEnd releases a table's export snapshot and maintenance hold on
// the source shard. Idempotent: ending a table with no export is OK.
type MigrateEnd struct {
	Table string
}

// Encode serializes the message payload.
func (m *MigrateEnd) Encode() []byte {
	var b Buf
	b.String(m.Table)
	return b.B
}

// DecodeMigrateEnd parses a MigrateEnd payload.
func DecodeMigrateEnd(p []byte) (*MigrateEnd, error) {
	d := Dec{B: p}
	m := &MigrateEnd{Table: d.String()}
	return m, d.Done()
}

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

// Encode serializes the message payload.
func (m *MigrateInstall) Encode() []byte {
	var b Buf
	b.String(m.Table)
	b.String(m.File)
	b.I64(m.Offset)
	b.I64(m.Total)
	b.I64(m.RowCount)
	b.I64(m.MinTs)
	b.I64(m.MaxTs)
	b.Bool(m.Commit)
	b.Bytes(m.Data)
	return b.B
}

// DecodeMigrateInstall parses a MigrateInstall payload.
func DecodeMigrateInstall(p []byte) (*MigrateInstall, error) {
	d := Dec{B: p}
	m := &MigrateInstall{
		Table:  d.String(),
		File:   d.String(),
		Offset: d.I64(),
		Total:  d.I64(),
	}
	m.RowCount = d.I64()
	m.MinTs = d.I64()
	m.MaxTs = d.I64()
	m.Commit = d.Bool()
	m.Data = d.Bytes()
	return m, d.Done()
}

// MigrateTable is a router-only control message: move a table to the
// shard at TargetAddr by shipping its sealed tablets, then flip placement
// and drop the source copy. The router answers OK when the table is fully
// served from the target.
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

type MigrateTable struct {
	Table      string
	TargetAddr string
}

// Encode serializes the message payload.
func (m *MigrateTable) Encode() []byte {
	var b Buf
	b.String(m.Table)
	b.String(m.TargetAddr)
	return b.B
}

// DecodeMigrateTable parses a MigrateTable payload.
func DecodeMigrateTable(p []byte) (*MigrateTable, error) {
	d := Dec{B: p}
	m := &MigrateTable{Table: d.String(), TargetAddr: d.String()}
	return m, d.Done()
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

// Encode serializes the message payload.
func (m *RouterStatsResult) Encode() []byte {
	var b Buf
	b.Stats(m.Counters)
	b.U32(uint32(len(m.Shards)))
	for _, s := range m.Shards {
		b.String(s.Addr)
		b.U8(s.State)
	}
	return b.B
}

// DecodeRouterStatsResult parses a RouterStatsResult payload.
func DecodeRouterStatsResult(p []byte) (*RouterStatsResult, error) {
	d := Dec{B: p}
	m := &RouterStatsResult{Counters: d.Stats()}
	n := int(d.U32())
	if d.Err == nil && n > len(d.B) {
		d.fail("router shards count")
	}
	for i := 0; i < n && d.Err == nil; i++ {
		m.Shards = append(m.Shards, RouterShardInfo{Addr: d.String(), State: d.U8()})
	}
	return m, d.Done()
}
