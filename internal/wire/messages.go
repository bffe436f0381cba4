package wire

import (
	"littletable/internal/ltval"
	"littletable/internal/metric"
	"littletable/internal/schema"
)

// Hello opens a session.
type Hello struct {
	Version uint32
}

// Encode serializes the message payload.
func (m *Hello) Encode() []byte {
	var b Buf
	b.U32(m.Version)
	return b.B
}

// DecodeHello parses a Hello payload.
func DecodeHello(p []byte) (*Hello, error) {
	d := Dec{B: p}
	m := &Hello{Version: d.U32()}
	return m, d.Done()
}

// CreateTable asks the server to create a table.
type CreateTable struct {
	Name   string
	Schema *schema.Schema
	TTL    int64
}

// Encode serializes the message payload.
func (m *CreateTable) Encode() ([]byte, error) {
	var b Buf
	b.String(m.Name)
	if err := b.Schema(m.Schema); err != nil {
		return nil, err
	}
	b.I64(m.TTL)
	return b.B, nil
}

// DecodeCreateTable parses a CreateTable payload.
func DecodeCreateTable(p []byte) (*CreateTable, error) {
	d := Dec{B: p}
	m := &CreateTable{Name: d.String(), Schema: d.Schema(), TTL: d.I64()}
	return m, d.Done()
}

// TableName carries just a table name (DropTable, GetSchema, FlushTable,
// Stats).
type TableName struct {
	Name string
}

// Encode serializes the message payload.
func (m *TableName) Encode() []byte {
	var b Buf
	b.String(m.Name)
	return b.B
}

// DecodeTableName parses a TableName payload.
func DecodeTableName(p []byte) (*TableName, error) {
	d := Dec{B: p}
	m := &TableName{Name: d.String()}
	return m, d.Done()
}

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

// Encode serializes the message payload.
func (m *Insert) Encode() []byte {
	var b Buf
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

// Query is the wire form of a core.Query.
type Query struct {
	Table              string
	Lower, Upper       []ltval.Value
	HasLower, HasUpper bool
	LowerInc, UpperInc bool
	MinTs, MaxTs       int64
	Descending         bool
	Limit              uint32
}

// Encode serializes the message payload.
func (m *Query) Encode() []byte {
	var b Buf
	b.String(m.Table)
	b.Bool(m.HasLower)
	b.Values(m.Lower)
	b.Bool(m.LowerInc)
	b.Bool(m.HasUpper)
	b.Values(m.Upper)
	b.Bool(m.UpperInc)
	b.I64(m.MinTs)
	b.I64(m.MaxTs)
	b.Bool(m.Descending)
	b.U32(m.Limit)
	return b.B
}

// DecodeQuery parses a Query payload.
func DecodeQuery(p []byte) (*Query, error) {
	d := Dec{B: p}
	m := &Query{
		Table:    d.String(),
		HasLower: d.Bool(),
	}
	m.Lower = d.Values()
	m.LowerInc = d.Bool()
	m.HasUpper = d.Bool()
	m.Upper = d.Values()
	m.UpperInc = d.Bool()
	m.MinTs = d.I64()
	m.MaxTs = d.I64()
	m.Descending = d.Bool()
	m.Limit = d.U32()
	return m, d.Done()
}

// LatestRow asks for the most recent row matching a key prefix (§3.4.5).
type LatestRow struct {
	Table  string
	Prefix []ltval.Value
}

// Encode serializes the message payload.
func (m *LatestRow) Encode() []byte {
	var b Buf
	b.String(m.Table)
	b.Values(m.Prefix)
	return b.B
}

// DecodeLatestRow parses a LatestRow payload.
func DecodeLatestRow(p []byte) (*LatestRow, error) {
	d := Dec{B: p}
	m := &LatestRow{Table: d.String(), Prefix: d.Values()}
	return m, d.Done()
}

// Delete is the wire form of the §7 bulk delete: a two-dimensional box
// whose contents are removed. There is deliberately no residual predicate
// on the wire — privacy deletions target key ranges (a customer, a
// network, a device) and time ranges.
type Delete struct {
	Table              string
	Lower, Upper       []ltval.Value
	HasLower, HasUpper bool
	LowerInc, UpperInc bool
	MinTs, MaxTs       int64
}

// Encode serializes the message payload.
func (m *Delete) Encode() []byte {
	var b Buf
	b.String(m.Table)
	b.Bool(m.HasLower)
	b.Values(m.Lower)
	b.Bool(m.LowerInc)
	b.Bool(m.HasUpper)
	b.Values(m.Upper)
	b.Bool(m.UpperInc)
	b.I64(m.MinTs)
	b.I64(m.MaxTs)
	return b.B
}

// DecodeDelete parses a Delete payload.
func DecodeDelete(p []byte) (*Delete, error) {
	d := Dec{B: p}
	m := &Delete{Table: d.String(), HasLower: d.Bool()}
	m.Lower = d.Values()
	m.LowerInc = d.Bool()
	m.HasUpper = d.Bool()
	m.Upper = d.Values()
	m.UpperInc = d.Bool()
	m.MinTs = d.I64()
	m.MaxTs = d.I64()
	return m, d.Done()
}

// DeleteResult reports how many rows a Delete removed.
type DeleteResult struct {
	Deleted int64
}

// Encode serializes the message payload.
func (m *DeleteResult) Encode() []byte {
	var b Buf
	b.I64(m.Deleted)
	return b.B
}

// DecodeDeleteResult parses a DeleteResult payload.
func DecodeDeleteResult(p []byte) (*DeleteResult, error) {
	d := Dec{B: p}
	m := &DeleteResult{Deleted: d.I64()}
	return m, d.Done()
}

// AlterTTL changes a table's TTL.
type AlterTTL struct {
	Table string
	TTL   int64
}

// Encode serializes the message payload.
func (m *AlterTTL) Encode() []byte {
	var b Buf
	b.String(m.Table)
	b.I64(m.TTL)
	return b.B
}

// DecodeAlterTTL parses an AlterTTL payload.
func DecodeAlterTTL(p []byte) (*AlterTTL, error) {
	d := Dec{B: p}
	m := &AlterTTL{Table: d.String(), TTL: d.I64()}
	return m, d.Done()
}

// AddColumn appends a column to a table's schema.
type AddColumn struct {
	Table   string
	Name    string
	Type    ltval.Type
	Default ltval.Value
}

// Encode serializes the message payload.
func (m *AddColumn) Encode() []byte {
	var b Buf
	b.String(m.Table)
	b.String(m.Name)
	b.U8(uint8(m.Type))
	hasDefault := m.Default.Type != ltval.Invalid
	b.Bool(hasDefault)
	if hasDefault {
		b.Value(m.Default)
	}
	return b.B
}

// DecodeAddColumn parses an AddColumn payload.
func DecodeAddColumn(p []byte) (*AddColumn, error) {
	d := Dec{B: p}
	m := &AddColumn{Table: d.String(), Name: d.String(), Type: ltval.Type(d.U8())}
	if d.Bool() {
		m.Default = d.Value()
	}
	return m, d.Done()
}

// WidenColumn widens an int32 column.
type WidenColumn struct {
	Table string
	Name  string
}

// Encode serializes the message payload.
func (m *WidenColumn) Encode() []byte {
	var b Buf
	b.String(m.Table)
	b.String(m.Name)
	return b.B
}

// DecodeWidenColumn parses a WidenColumn payload.
func DecodeWidenColumn(p []byte) (*WidenColumn, error) {
	d := Dec{B: p}
	m := &WidenColumn{Table: d.String(), Name: d.String()}
	return m, d.Done()
}

// --- server→client ---

// ErrorMsg reports a failed request.
type ErrorMsg struct {
	Message string
}

// Encode serializes the message payload.
func (m *ErrorMsg) Encode() []byte {
	var b Buf
	b.String(m.Message)
	return b.B
}

// DecodeErrorMsg parses an ErrorMsg payload.
func DecodeErrorMsg(p []byte) (*ErrorMsg, error) {
	d := Dec{B: p}
	m := &ErrorMsg{Message: d.String()}
	return m, d.Done()
}

// TableList answers ListTables.
type TableList struct {
	Names []string
}

// Encode serializes the message payload.
func (m *TableList) Encode() []byte {
	var b Buf
	b.U32(uint32(len(m.Names)))
	for _, n := range m.Names {
		b.String(n)
	}
	return b.B
}

// DecodeTableList parses a TableList payload.
func DecodeTableList(p []byte) (*TableList, error) {
	d := Dec{B: p}
	n := int(d.U32())
	m := &TableList{}
	for i := 0; i < n && d.Err == nil; i++ {
		m.Names = append(m.Names, d.String())
	}
	return m, d.Done()
}

// SchemaResp answers GetSchema: the schema, its sort order (implied by the
// schema's key), and the table's TTL.
type SchemaResp struct {
	Schema *schema.Schema
	TTL    int64
}

// Encode serializes the message payload.
func (m *SchemaResp) Encode() ([]byte, error) {
	var b Buf
	if err := b.Schema(m.Schema); err != nil {
		return nil, err
	}
	b.I64(m.TTL)
	return b.B, nil
}

// DecodeSchemaResp parses a SchemaResp payload.
func DecodeSchemaResp(p []byte) (*SchemaResp, error) {
	d := Dec{B: p}
	m := &SchemaResp{Schema: d.Schema(), TTL: d.I64()}
	return m, d.Done()
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

// statEntryMin is the smallest encoding of one stat list entry: an empty
// name's length prefix plus the value.
const statEntryMin = 4 + 8

// Stats appends a stat list: a count, then (name, value) pairs. It is the
// payload of MsgStatsResult and MsgServerStatsResult and the counter part
// of MsgRouterStatsResult. Entries are keyed by name, so either side may
// add a metric without the other noticing; help text and kind stay in the
// declaring process.
func (b *Buf) Stats(l metric.List) {
	b.U32(uint32(len(l)))
	for _, s := range l {
		b.String(s.Name)
		b.I64(s.Value)
	}
}

// Stats reads a stat list. A count the remaining payload cannot hold is
// corrupt and rejected before anything is allocated for it; so is a name
// that appears twice, which by-name readers would otherwise half-see.
func (d *Dec) Stats() metric.List {
	n := int(d.U32())
	if d.Err != nil || n > (len(d.B)-d.off)/statEntryMin {
		d.fail("stats count")
		return nil
	}
	l := make(metric.List, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < n && d.Err == nil; i++ {
		s := metric.Sample{Name: d.String(), Value: d.I64()}
		if seen[s.Name] {
			d.fail("duplicate stat " + s.Name)
			return nil
		}
		seen[s.Name] = true
		l = append(l, s)
	}
	return l
}

// EncodeStats serializes a whole-payload stat list.
func EncodeStats(l metric.List) []byte {
	var b Buf
	b.Stats(l)
	return b.B
}

// DecodeStats parses a whole-payload stat list.
func DecodeStats(p []byte) (metric.List, error) {
	d := Dec{B: p}
	l := d.Stats()
	return l, d.Done()
}
