package wire

import (
	"littletable/internal/core"
	"littletable/internal/ltval"
	"littletable/internal/metric"
	"littletable/internal/schema"
)

// Hello opens a session.
type Hello struct {
	Version uint32
}

func (m *Hello) fields(c *codec) { c.u32(&m.Version) }

// CreateTable asks the server to create a table.
type CreateTable struct {
	Name   string
	Schema *schema.Schema
	TTL    int64
}

func (m *CreateTable) fields(c *codec) {
	c.str(&m.Name)
	c.schema(&m.Schema)
	c.i64(&m.TTL)
}

// TableName carries just a table name (DropTable, GetSchema, FlushTable,
// Stats).
type TableName struct {
	Name string
}

func (m *TableName) fields(c *codec) { c.str(&m.Name) }

// Insert carries a batch of rows. SchemaVersion lets the server reject
// rows encoded under a stale schema (the client then refreshes).
// ServerTimestamps, when set, tells the server to assign its current time
// to every row whose timestamp cell is zero (§3.1: "A client may also omit
// a row's timestamp entirely, in which case the server sets it to the
// current time").
type Insert struct {
	Table            string
	SchemaVersion    uint32
	ServerTimestamps bool
	Rows             []schema.Row
	sc               *schema.Schema
}

// NewInsert builds an insert batch for rows under sc.
func NewInsert(table string, sc *schema.Schema, serverTs bool, rows []schema.Row) *Insert {
	return &Insert{Table: table, SchemaVersion: sc.Version, ServerTimestamps: serverTs, Rows: rows, sc: sc}
}

// Encode serializes the message payload into one buffer sized exactly
// from the batch, so encoding a batch is one allocation.
func (m *Insert) Encode() []byte {
	n := 4 + len(m.Table) + 4 + 1 + 4 // table, schema version, flag, row count
	for _, r := range m.Rows {
		n += m.sc.EncodedRowSize(r)
	}
	b := Buf{B: make([]byte, 0, n)}
	b.String(m.Table)
	b.U32(m.SchemaVersion)
	b.Bool(m.ServerTimestamps)
	b.Rows(m.sc, m.Rows)
	return b.B
}

// DecodeInsertHeader parses the table name and schema version; the caller
// looks up the table's schema and finishes with FinishDecode.
func DecodeInsertHeader(p []byte) (*Insert, *Dec, error) {
	d := &Dec{B: p}
	m := &Insert{Table: d.String(), SchemaVersion: d.U32(), ServerTimestamps: d.Bool()}
	if d.Err != nil {
		return nil, nil, d.Err
	}
	return m, d, nil
}

// FinishDecode decodes the row batch under sc.
func (m *Insert) FinishDecode(d *Dec, sc *schema.Schema) error {
	m.Rows = d.Rows(sc)
	return d.Done()
}

// Query asks for the rows of one table inside a box.
type Query struct {
	Table string
	core.Query
}

func (m *Query) fields(c *codec) {
	c.str(&m.Table)
	c.box(&m.Query, true)
}

// LatestRow asks for the most recent row matching a key prefix (§3.4.5).
type LatestRow struct {
	Table  string
	Prefix []ltval.Value
}

func (m *LatestRow) fields(c *codec) {
	c.str(&m.Table)
	c.values(&m.Prefix)
}

// Delete is the wire form of the §7 bulk delete: a two-dimensional box
// whose contents are removed. There is deliberately no residual predicate
// on the wire — privacy deletions target key ranges (a customer, a
// network, a device) and time ranges. The box's Descending and Limit are
// not sent.
type Delete struct {
	Table string
	core.Query
}

func (m *Delete) fields(c *codec) {
	c.str(&m.Table)
	c.box(&m.Query, false)
}

// DeleteResult reports how many rows a Delete removed.
type DeleteResult struct {
	Deleted int64
}

func (m *DeleteResult) fields(c *codec) { c.i64(&m.Deleted) }

// AlterTTL changes a table's TTL.
type AlterTTL struct {
	Table string
	TTL   int64
}

func (m *AlterTTL) fields(c *codec) {
	c.str(&m.Table)
	c.i64(&m.TTL)
}

// AddColumn appends a column to a table's schema. Default is optional: a
// presence byte, then the value when its Type is set.
type AddColumn struct {
	Table   string
	Name    string
	Type    ltval.Type
	Default ltval.Value
}

func (m *AddColumn) fields(c *codec) {
	c.str(&m.Table)
	c.str(&m.Name)
	c.u8((*uint8)(&m.Type))
	has := m.Default.Type != ltval.Invalid
	c.boolean(&has)
	if has {
		c.value(&m.Default)
	}
}

// WidenColumn widens an int32 column.
type WidenColumn struct {
	Table string
	Name  string
}

func (m *WidenColumn) fields(c *codec) {
	c.str(&m.Table)
	c.str(&m.Name)
}

// --- server→client ---

// ErrorMsg reports a failed request.
type ErrorMsg struct {
	Message string
}

func (m *ErrorMsg) fields(c *codec) { c.str(&m.Message) }

// TableList answers ListTables.
type TableList struct {
	Names []string
}

func (m *TableList) fields(c *codec) {
	for i := range list(c, &m.Names, 4) {
		c.str(&m.Names[i])
	}
}

// SchemaResp answers GetSchema: the schema, its sort order (implied by the
// schema's key), and the table's TTL.
type SchemaResp struct {
	Schema *schema.Schema
	TTL    int64
}

func (m *SchemaResp) fields(c *codec) {
	c.schema(&m.Schema)
	c.i64(&m.TTL)
}

// Rows answers a Query: one batch of result rows plus the more-available
// flag (§3.5). The client resumes past the last row when more is set.
type Rows struct {
	SchemaVersion uint32
	More          bool
	Rows          []schema.Row
}

// Encode serializes the message payload under sc.
func (m *Rows) Encode(sc *schema.Schema) []byte {
	w := NewRowsWriter(sc, m.SchemaVersion)
	for _, r := range m.Rows {
		w.Append(r)
	}
	return w.Finish(m.More)
}

// RowsWriter builds a Rows payload a row at a time, so a server can encode
// each row as its cursor yields it instead of collecting copies first.
type RowsWriter struct {
	b  Buf
	rb rowBatch
}

// NewRowsWriter starts a Rows payload of rows encoded under sc.
func NewRowsWriter(sc *schema.Schema, schemaVersion uint32) *RowsWriter {
	w := &RowsWriter{}
	w.b.U32(schemaVersion)
	w.rb = w.b.beginRowBatch(sc)
	return w
}

// Append encodes row; the caller may reuse it afterwards.
func (w *RowsWriter) Append(row schema.Row) { w.rb.append(&w.b, row) }

// Len returns the number of rows appended.
func (w *RowsWriter) Len() int { return w.rb.n }

// Finish sets the more-available flag and returns the payload.
func (w *RowsWriter) Finish(more bool) []byte {
	w.rb.end(&w.b, more)
	return w.b.B
}

// DecodeRows parses a Rows payload under sc.
func DecodeRows(p []byte, sc *schema.Schema) (*Rows, error) {
	d := Dec{B: p}
	m := &Rows{SchemaVersion: d.U32(), More: d.Bool()}
	m.Rows = d.Rows(sc)
	return m, d.Done()
}

// RowResult answers LatestRow.
type RowResult struct {
	Found bool
	Row   schema.Row
}

// Encode serializes the message payload under sc.
func (m *RowResult) Encode(sc *schema.Schema) []byte {
	var b Buf
	b.Bool(m.Found)
	if m.Found {
		b.Rows(sc, []schema.Row{m.Row})
	}
	return b.B
}

// DecodeRowResult parses a RowResult payload under sc.
func DecodeRowResult(p []byte, sc *schema.Schema) (*RowResult, error) {
	d := Dec{B: p}
	m := &RowResult{Found: d.Bool()}
	if m.Found {
		rows := d.Rows(sc)
		if len(rows) == 1 {
			m.Row = rows[0]
		} else if d.Err == nil {
			d.fail("row result")
		}
	}
	return m, d.Done()
}

// StatsResult answers Stats and ServerStats: the table's or the server's
// metrics, keyed by name.
type StatsResult struct {
	Stats metric.List
}

func (m *StatsResult) fields(c *codec) { c.stats(&m.Stats) }
