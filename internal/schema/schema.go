// Package schema defines table schemas and rows.
//
// A LittleTable schema (§3.1) is an ordered set of columns, each with a
// name, type, and default value. An ordered subset of the columns forms the
// primary key; the final primary-key column must be of type timestamp and
// named "ts". The server returns query results ordered by primary key, and
// the engine clusters rows by the timestamp column and sorts within each
// cluster by the full key.
package schema

import (
	"errors"
	"fmt"
	"strings"

	"littletable/internal/ltval"
)

// TimestampColumn is the required name of the final primary-key column.
const TimestampColumn = "ts"

// MaxColumns bounds schema width; production tables are far narrower.
const MaxColumns = 255

// Column describes one column.
type Column struct {
	Name    string
	Type    ltval.Type
	Default ltval.Value // zero value of Type if unset
}

// Schema describes a table's layout. Schemas are immutable once built;
// evolution produces a new Schema with an incremented Version.
type Schema struct {
	Columns []Column
	// Key holds indexes into Columns forming the primary key, in key order.
	// The last entry always refers to the timestamp column.
	Key []int
	// Version increments on every schema change (§3.5). Tablet footers
	// record the version they were written under so readers can translate.
	Version uint32
}

// Row is a single row's cells, in schema column order.
type Row []ltval.Value

// Errors returned by schema validation.
var (
	ErrNoColumns      = errors.New("schema: table has no columns")
	ErrNoKey          = errors.New("schema: table has no primary key")
	ErrBadTimestamp   = errors.New("schema: final primary-key column must be timestamp \"ts\"")
	ErrDuplicateName  = errors.New("schema: duplicate column name")
	ErrUnknownColumn  = errors.New("schema: unknown column")
	ErrArity          = errors.New("schema: row arity does not match schema")
	ErrTypeMismatch   = errors.New("schema: value type does not match column type")
	ErrKeyNotPrefix   = errors.New("schema: key prefix longer than primary key")
	ErrNotWidenable   = errors.New("schema: only int32 columns can be widened to int64")
	ErrKeyColumn      = errors.New("schema: primary-key columns cannot be altered")
	ErrTooManyColumns = errors.New("schema: too many columns")
)

// New builds and validates a schema from columns and the names of the
// primary-key columns in key order.
func New(cols []Column, key []string) (*Schema, error) {
	if len(cols) == 0 {
		return nil, ErrNoColumns
	}
	if len(cols) > MaxColumns {
		return nil, ErrTooManyColumns
	}
	if len(key) == 0 {
		return nil, ErrNoKey
	}
	byName := make(map[string]int, len(cols))
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("schema: column %d has empty name", i)
		}
		if !c.Type.Valid() {
			return nil, fmt.Errorf("schema: column %q has invalid type", c.Name)
		}
		if _, dup := byName[c.Name]; dup {
			return nil, fmt.Errorf("%w: %q", ErrDuplicateName, c.Name)
		}
		byName[c.Name] = i
		if c.Default.Type == ltval.Invalid {
			cols[i].Default = ltval.Zero(c.Type)
		} else if c.Default.Type != c.Type {
			return nil, fmt.Errorf("%w: default for %q", ErrTypeMismatch, c.Name)
		}
	}
	s := &Schema{Columns: append([]Column(nil), cols...), Version: 1}
	seen := make(map[int]bool, len(key))
	for _, name := range key {
		i, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("%w: key column %q", ErrUnknownColumn, name)
		}
		if seen[i] {
			return nil, fmt.Errorf("schema: key column %q repeated", name)
		}
		seen[i] = true
		s.Key = append(s.Key, i)
	}
	last := s.Columns[s.Key[len(s.Key)-1]]
	if last.Name != TimestampColumn || last.Type != ltval.Timestamp {
		return nil, ErrBadTimestamp
	}
	return s, nil
}

// MustNew is New but panics on error; for tests and fixed internal tables.
func MustNew(cols []Column, key []string) *Schema {
	s, err := New(cols, key)
	if err != nil {
		panic(err)
	}
	return s
}

// ColumnClass groups column types by their encoded representation, for the
// per-column block codecs: integer-like columns (Int32, Int64, Timestamp)
// delta-encode, Double columns XOR-encode, and byte-like columns (String,
// Blob) dictionary-encode.
type ColumnClass int

// The three codec families a column can belong to.
const (
	ClassInt ColumnClass = iota
	ClassFloat
	ClassBytes
)

// ClassOf maps a value type to its codec family.
func ClassOf(t ltval.Type) ColumnClass {
	switch t {
	case ltval.Double:
		return ClassFloat
	case ltval.String, ltval.Blob:
		return ClassBytes
	default:
		return ClassInt
	}
}

// ColumnClass returns the codec family of column i.
func (s *Schema) ColumnClass(i int) ColumnClass { return ClassOf(s.Columns[i].Type) }

// ColumnIndex returns the index of the named column, or -1.
func (s *Schema) ColumnIndex(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// TsIndex returns the column index of the timestamp key column.
func (s *Schema) TsIndex() int { return s.Key[len(s.Key)-1] }

// KeyLen returns the number of primary-key columns.
func (s *Schema) KeyLen() int { return len(s.Key) }

// IsKeyColumn reports whether column index i participates in the key.
func (s *Schema) IsKeyColumn(i int) bool {
	for _, k := range s.Key {
		if k == i {
			return true
		}
	}
	return false
}

// KeyNames returns the primary-key column names in key order.
func (s *Schema) KeyNames() []string {
	names := make([]string, len(s.Key))
	for i, k := range s.Key {
		names[i] = s.Columns[k].Name
	}
	return names
}

// Validate checks that row matches the schema in arity and types.
func (s *Schema) Validate(row Row) error {
	if len(row) != len(s.Columns) {
		return fmt.Errorf("%w: got %d columns, want %d", ErrArity, len(row), len(s.Columns))
	}
	for i, v := range row {
		if v.Type != s.Columns[i].Type {
			return fmt.Errorf("%w: column %q got %v, want %v",
				ErrTypeMismatch, s.Columns[i].Name, v.Type, s.Columns[i].Type)
		}
	}
	return nil
}

// Ts returns row's timestamp in microseconds.
func (s *Schema) Ts(row Row) int64 { return row[s.TsIndex()].Int }

// SetTs sets row's timestamp; used when the client omits it and the server
// fills in the current time (§3.1).
func (s *Schema) SetTs(row Row, us int64) { row[s.TsIndex()] = ltval.NewTimestamp(us) }

// CompareKeys orders two rows by primary key. This is the total order of
// the table (§3.1: results are returned in ascending or descending order by
// primary key).
func (s *Schema) CompareKeys(a, b Row) int {
	for _, k := range s.Key {
		if c := a[k].Compare(b[k]); c != 0 {
			return c
		}
	}
	return 0
}

// CompareKeyPrefix compares the first n key columns of a and b.
func (s *Schema) CompareKeyPrefix(a, b Row, n int) int {
	if n > len(s.Key) {
		n = len(s.Key)
	}
	for _, k := range s.Key[:n] {
		if c := a[k].Compare(b[k]); c != 0 {
			return c
		}
	}
	return 0
}

// KeyOf extracts the primary-key values of row, in key order.
func (s *Schema) KeyOf(row Row) []ltval.Value {
	out := make([]ltval.Value, len(s.Key))
	for i, k := range s.Key {
		out[i] = row[k]
	}
	return out
}

// CopyKey sets key to row's primary-key values, in key order, copying
// byte cells into buf, and returns both for reuse on the next call. The
// copy stays valid however row's storage is reused afterwards, and once
// key and buf have grown to the widest key seen it allocates nothing.
func (s *Schema) CopyKey(key []ltval.Value, buf []byte, row Row) ([]ltval.Value, []byte) {
	key, buf = key[:0], buf[:0]
	for _, k := range s.Key {
		v := row[k]
		if v.Bytes != nil {
			buf = append(buf, v.Bytes...)
			v.Bytes = buf[len(buf)-len(v.Bytes):]
		}
		key = append(key, v)
	}
	return key, buf
}

// String renders the schema like a CREATE TABLE body.
func (s *Schema) String() string {
	var b strings.Builder
	for i, c := range s.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", c.Name, c.Type)
	}
	fmt.Fprintf(&b, ", PRIMARY KEY (%s)", strings.Join(s.KeyNames(), ", "))
	return b.String()
}

// Clone returns a deep copy sharing no mutable state.
func (s *Schema) Clone() *Schema {
	c := &Schema{
		Columns: append([]Column(nil), s.Columns...),
		Key:     append([]int(nil), s.Key...),
		Version: s.Version,
	}
	return c
}

// AddColumn returns a new schema with col appended to the tail (§3.5:
// clients can append columns to the tail of a table's schema). Rows written
// under the old schema read back with the column's default value.
func (s *Schema) AddColumn(col Column) (*Schema, error) {
	if s.ColumnIndex(col.Name) >= 0 {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateName, col.Name)
	}
	if !col.Type.Valid() {
		return nil, fmt.Errorf("schema: column %q has invalid type", col.Name)
	}
	if len(s.Columns) >= MaxColumns {
		return nil, ErrTooManyColumns
	}
	if col.Default.Type == ltval.Invalid {
		col.Default = ltval.Zero(col.Type)
	} else if col.Default.Type != col.Type {
		return nil, fmt.Errorf("%w: default for %q", ErrTypeMismatch, col.Name)
	}
	n := s.Clone()
	n.Columns = append(n.Columns, col)
	n.Version++
	return n, nil
}

// WidenColumn returns a new schema with the named int32 column widened to
// int64 (§3.5). Key columns cannot be widened: existing tablets are sorted
// under the old key encoding, and the paper's production schema changes are
// limited to value columns.
func (s *Schema) WidenColumn(name string) (*Schema, error) {
	i := s.ColumnIndex(name)
	if i < 0 {
		return nil, fmt.Errorf("%w: %q", ErrUnknownColumn, name)
	}
	if s.IsKeyColumn(i) {
		return nil, fmt.Errorf("%w: %q", ErrKeyColumn, name)
	}
	if s.Columns[i].Type != ltval.Int32 {
		return nil, fmt.Errorf("%w: %q is %v", ErrNotWidenable, name, s.Columns[i].Type)
	}
	n := s.Clone()
	n.Columns[i].Type = ltval.Int64
	n.Columns[i].Default = n.Columns[i].Default.Widen()
	n.Version++
	return n, nil
}

// Translate converts a row written under schema old to the receiver's
// layout (§3.5): widening int32 cells and filling appended columns with
// defaults. It assumes old is an ancestor of s (same column prefix).
func (s *Schema) Translate(old *Schema, row Row) Row {
	if old.Version == s.Version && len(row) == len(s.Columns) {
		return row
	}
	out := make(Row, len(s.Columns))
	for i := range s.Columns {
		if i < len(row) {
			v := row[i]
			if s.Columns[i].Type == ltval.Int64 && v.Type == ltval.Int32 {
				v = v.Widen()
			}
			out[i] = v
		} else {
			out[i] = s.Columns[i].Default
		}
	}
	return out
}

// DefaultsRow returns a full row of column defaults; callers overwrite the
// cells they have values for.
func (s *Schema) DefaultsRow() Row {
	row := make(Row, len(s.Columns))
	for i, c := range s.Columns {
		row[i] = c.Default
	}
	return row
}

// CloneRow deep-copies a row, including byte-slice cells. Needed when rows
// decoded from a shared buffer must outlive it.
func CloneRow(row Row) Row {
	out := make(Row, len(row))
	for i, v := range row {
		if v.Bytes != nil {
			b := make([]byte, len(v.Bytes))
			copy(b, v.Bytes)
			v.Bytes = b
		}
		out[i] = v
	}
	return out
}
