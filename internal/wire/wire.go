// Package wire defines LittleTable's client–server protocol (§3.1): the
// paper's SQLite adaptor communicates with the server over TCP to list
// tables, fetch schemas and sort orders, insert row batches, and run
// bounded ordered scans. This package provides the framing and message
// codecs; internal/server and internal/client sit on either end.
//
// Framing: every message is [u32 payload length][u8 message type][payload],
// little-endian. The length covers the type byte and payload.
package wire

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"littletable/internal/ltval"
	"littletable/internal/schema"
)

// MaxFrame bounds a single message; large query results span many frames.
const MaxFrame = 64 << 20

// MsgType identifies a protocol message.
type MsgType uint8

// Client→server message types. Each has exactly one row in Requests
// (requests.go), which says how clients, servers and the router treat it.
const (
	MsgHello MsgType = iota + 1
	MsgListTables
	MsgCreateTable
	MsgDropTable
	MsgGetSchema
	MsgInsert
	MsgQuery
	MsgLatestRow
	MsgAlterTTL
	MsgAddColumn
	MsgWidenColumn
	MsgFlushTable // the flush-to-timestamp command proposed in §4.1.2
	MsgStats
	MsgDelete      // the bulk delete proposed in §7
	MsgServerStats // server-level (not per-table) counters: conns, shedding, drain
	// Scatter + migration messages (router tier; see router.go). A single
	// server answers for its local tables; the router fans out.
	MsgScatterQuery   // one bounded query across every table matching a prefix
	MsgMigrateBegin   // freeze-flush a table, pin sealed tablets, hold maintenance
	MsgMigrateFetch   // read a chunk of a pinned tablet file
	MsgMigrateEnd     // release the export snapshot and maintenance hold
	MsgMigrateInstall // ship a sealed-tablet chunk into the target shard
	MsgMigrateTable   // move a table to another shard
	MsgRouterStats    // routing counters + shard health
	// MsgAggQuery is a server-side aggregation over every table matching a
	// prefix: rows fold into (time-bucket × key-prefix) groups as the merge
	// cursor yields them, so only O(groups) partial aggregates cross the
	// wire (see internal/agg and agg.go in this package).
	MsgAggQuery

	msgRequestEnd // one past the last request type; new requests go above
)

// Server→client message types.
const (
	MsgOK MsgType = iota + 64
	MsgError
	MsgTableList
	MsgSchema
	MsgRows
	MsgRowResult
	MsgStatsResult
	MsgDeleteResult
	MsgServerStatsResult
	// MsgOverloaded is a distinct refusal, not a generic MsgError: the
	// server's admission gate is full and the request was NOT processed.
	// Clients may safely retry any request — including non-idempotent
	// inserts — after backing off, which is exactly what a generic error
	// cannot promise.
	MsgOverloaded
	MsgScatterRows       // per-table sections answering MsgScatterQuery
	MsgMigrateManifest   // schema + pinned tablet list answering MsgMigrateBegin
	MsgMigrateChunk      // tablet bytes answering MsgMigrateFetch
	MsgRouterStatsResult // counters + shard health answering MsgRouterStats
	MsgAggResult         // mergeable partial aggregates answering MsgAggQuery

	msgResponseEnd // one past the last response type; new responses go above
)

// ProtocolVersion guards client/server compatibility in Hello. Version 2
// made the three stats results self-describing (name, value) lists.
const ProtocolVersion = 2

// Errors returned by the codec.
var (
	ErrFrameTooBig = errors.New("wire: frame exceeds MaxFrame")
	ErrCorrupt     = errors.New("wire: corrupt message")
)

// Conn frames messages over any ReadWriter (normally a TCP connection).
type Conn struct {
	r       *bufio.Reader
	w       *bufio.Writer
	readMax int
}

// NewConn wraps rw in buffered framing.
func NewConn(rw io.ReadWriter) *Conn {
	return &Conn{r: bufio.NewReaderSize(rw, 64*1024), w: bufio.NewWriterSize(rw, 64*1024), readMax: MaxFrame}
}

// SetReadLimit caps incoming frame sizes below MaxFrame, so a server can
// bound per-connection memory against oversized (or malicious) requests.
// n <= 0 or n > MaxFrame leaves the MaxFrame default.
func (c *Conn) SetReadLimit(n int) {
	if n > 0 && n <= MaxFrame {
		c.readMax = n
	}
}

// WriteMsg sends one message and flushes.
func (c *Conn) WriteMsg(t MsgType, payload []byte) error {
	n := len(payload) + 1
	if n > MaxFrame {
		return ErrFrameTooBig
	}
	var hdr [5]byte
	hdr[0], hdr[1], hdr[2], hdr[3] = byte(n), byte(n>>8), byte(n>>16), byte(n>>24)
	hdr[4] = byte(t)
	if _, err := c.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := c.w.Write(payload); err != nil {
		return err
	}
	return c.w.Flush()
}

// ReadMsg receives one message.
func (c *Conn) ReadMsg() (MsgType, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(c.r, hdr[:4]); err != nil {
		return 0, nil, err
	}
	n := int(uint32(hdr[0]) | uint32(hdr[1])<<8 | uint32(hdr[2])<<16 | uint32(hdr[3])<<24)
	if n < 1 || n > c.readMax {
		return 0, nil, ErrFrameTooBig
	}
	if _, err := io.ReadFull(c.r, hdr[4:5]); err != nil {
		return 0, nil, err
	}
	payload := make([]byte, n-1)
	if _, err := io.ReadFull(c.r, payload); err != nil {
		return 0, nil, err
	}
	return MsgType(hdr[4]), payload, nil
}

// --- primitive encoders ---

// Buf is an append-only payload builder with matched reader in Dec.
type Buf struct{ B []byte }

// U8 appends a byte.
func (b *Buf) U8(v uint8) { b.B = append(b.B, v) }

// U32 appends a little-endian uint32.
func (b *Buf) U32(v uint32) {
	b.B = append(b.B, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// U64 appends a little-endian uint64.
func (b *Buf) U64(v uint64) {
	b.U32(uint32(v))
	b.U32(uint32(v >> 32))
}

// I64 appends an int64.
func (b *Buf) I64(v int64) { b.U64(uint64(v)) }

// Bool appends a boolean.
func (b *Buf) Bool(v bool) {
	if v {
		b.U8(1)
	} else {
		b.U8(0)
	}
}

// Bytes appends a length-prefixed byte slice.
func (b *Buf) Bytes(v []byte) {
	b.U32(uint32(len(v)))
	b.B = append(b.B, v...)
}

// String appends a length-prefixed string.
func (b *Buf) String(v string) { b.Bytes([]byte(v)) }

// Value appends a type-tagged value (used for key bounds, whose layout is
// not fixed by any one schema).
func (b *Buf) Value(v ltval.Value) {
	b.U8(uint8(v.Type))
	b.B = v.Append(b.B)
}

// Values appends a count-prefixed sequence of tagged values.
func (b *Buf) Values(vs []ltval.Value) {
	b.U32(uint32(len(vs)))
	for _, v := range vs {
		b.Value(v)
	}
}

// Dec decodes payloads built with Buf; errors are sticky.
type Dec struct {
	B   []byte
	off int
	Err error
}

func (d *Dec) fail(what string) {
	if d.Err == nil {
		d.Err = fmt.Errorf("%w: short payload reading %s at %d", ErrCorrupt, what, d.off)
	}
}

// U8 reads a byte.
func (d *Dec) U8() uint8 {
	if d.Err != nil || d.off+1 > len(d.B) {
		d.fail("u8")
		return 0
	}
	v := d.B[d.off]
	d.off++
	return v
}

// U32 reads a uint32.
func (d *Dec) U32() uint32 {
	if d.Err != nil || d.off+4 > len(d.B) {
		d.fail("u32")
		return 0
	}
	b := d.B[d.off:]
	d.off += 4
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// U64 reads a uint64.
func (d *Dec) U64() uint64 {
	lo := d.U32()
	hi := d.U32()
	return uint64(lo) | uint64(hi)<<32
}

// I64 reads an int64.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// Bool reads a boolean.
func (d *Dec) Bool() bool { return d.U8() != 0 }

// Bytes reads a length-prefixed byte slice (aliasing the payload).
func (d *Dec) Bytes() []byte {
	n := int(d.U32())
	if d.Err != nil || n < 0 || d.off+n > len(d.B) {
		d.fail("bytes")
		return nil
	}
	v := d.B[d.off : d.off+n]
	d.off += n
	return v
}

// String reads a length-prefixed string.
func (d *Dec) String() string { return string(d.Bytes()) }

// Value reads a tagged value.
func (d *Dec) Value() ltval.Value {
	t := ltval.Type(d.U8())
	if d.Err != nil {
		return ltval.Value{}
	}
	v, n, err := ltval.Decode(t, d.B[d.off:])
	if err != nil {
		d.Err = err
		return ltval.Value{}
	}
	d.off += n
	return v
}

// Values reads a count-prefixed sequence of tagged values.
func (d *Dec) Values() []ltval.Value {
	n := int(d.U32())
	if d.Err != nil || n < 0 || n > len(d.B) {
		d.fail("values")
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]ltval.Value, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, d.Value())
	}
	return out
}

// Done reports whether the payload was fully and cleanly consumed.
func (d *Dec) Done() error {
	if d.Err != nil {
		return d.Err
	}
	if d.off != len(d.B) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.B)-d.off)
	}
	return nil
}

// Schema appends a schema as JSON (schemas are tiny; clarity wins).
func (b *Buf) Schema(sc *schema.Schema) error {
	data, err := json.Marshal(sc)
	if err != nil {
		return err
	}
	b.Bytes(data)
	return nil
}

// Schema reads a schema.
func (d *Dec) Schema() *schema.Schema {
	data := d.Bytes()
	if d.Err != nil {
		return nil
	}
	sc := &schema.Schema{}
	if err := json.Unmarshal(data, sc); err != nil {
		d.Err = err
		return nil
	}
	return sc
}

// Rows appends a count-prefixed batch of rows encoded under sc.
func (b *Buf) Rows(sc *schema.Schema, rows []schema.Row) {
	b.U32(uint32(len(rows)))
	for _, r := range rows {
		b.B = sc.AppendRow(b.B, r)
	}
}

// rowBatch streams a row batch whose length is only known once a cursor
// has been drained: each row is encoded straight into the payload — the
// cursor may reuse the row afterwards — and end patches in the count and
// the more-available flag that precedes it. Both row-carrying responses
// (Rows and each ScatterRows section) end in this [more][count][rows]
// tail.
type rowBatch struct {
	sc *schema.Schema
	at int // payload offset of the more flag; the count follows it
	n  int
}

func (b *Buf) beginRowBatch(sc *schema.Schema) rowBatch {
	rb := rowBatch{sc: sc, at: len(b.B)}
	b.Bool(false)
	b.U32(0)
	return rb
}

func (rb *rowBatch) append(b *Buf, row schema.Row) {
	b.B = rb.sc.AppendRow(b.B, row)
	rb.n++
}

func (rb *rowBatch) end(b *Buf, more bool) {
	if more {
		b.B[rb.at] = 1
	}
	binary.LittleEndian.PutUint32(b.B[rb.at+1:], uint32(rb.n))
}

// rowSlabRows is how many rows' cells Dec.Rows allocates at a time: one
// allocation per slab instead of one per row, small enough that a corrupt
// row count cannot size more than a slab beyond what the payload decodes.
const rowSlabRows = 256

// Rows decodes a batch encoded under sc. Rows alias the payload, and
// neighbouring rows share one backing array of cells; each stays valid for
// as long as it is referenced.
func (d *Dec) Rows(sc *schema.Schema) []schema.Row {
	n := int(d.U32())
	if d.Err != nil || n < 0 {
		return nil
	}
	// Every row encodes to at least one byte per column; a count beyond
	// the remaining payload is corrupt, and pre-allocating from it would
	// let a hostile frame exhaust memory.
	if n > len(d.B)-d.off+1 {
		d.fail("rows count")
		return nil
	}
	rows := make([]schema.Row, 0, n)
	ncols := len(sc.Columns)
	var slab []ltval.Value
	for i := 0; i < n; i++ {
		if d.off > len(d.B) {
			d.fail("rows")
			return nil
		}
		if len(slab) < ncols {
			slab = make([]ltval.Value, ncols*min(n-i, rowSlabRows))
		}
		row := schema.Row(slab[:ncols:ncols])
		slab = slab[ncols:]
		used, err := sc.DecodeRowInto(row, d.B[d.off:])
		if err != nil {
			d.Err = err
			return nil
		}
		d.off += used
		rows = append(rows, row)
	}
	return rows
}
