package sql

import (
	"fmt"

	"littletable/internal/client"
	"littletable/internal/clock"
	"littletable/internal/core"
	"littletable/internal/ltval"
	"littletable/internal/metric"
	"littletable/internal/schema"
	"littletable/internal/server"
)

// ServerBackend executes statements in-process against a server's tables:
// the deployment where the SQL layer runs inside the same process as the
// engine (cmd/littletabled's admin console, benchmarks, tests).
type ServerBackend struct {
	S *server.Server
}

var _ Backend = (*ServerBackend)(nil)

// OpenTable implements Backend.
func (b *ServerBackend) OpenTable(name string) (Table, error) {
	t, err := b.S.Table(name)
	if err != nil {
		return nil, err
	}
	return &serverTable{t: t}, nil
}

// CreateTable implements Backend.
func (b *ServerBackend) CreateTable(name string, sc *schema.Schema, ttl int64) error {
	_, err := b.S.CreateTable(name, sc, ttl)
	return err
}

// DropTable implements Backend.
func (b *ServerBackend) DropTable(name string) error { return b.S.DropTable(name) }

// ListTables implements Backend.
func (b *ServerBackend) ListTables() ([]string, error) { return b.S.TableNames(), nil }

// FlushTable implements Backend.
func (b *ServerBackend) FlushTable(name string) error {
	t, err := b.S.Table(name)
	if err != nil {
		return err
	}
	return t.FlushAll()
}

// Now implements Backend.
func (b *ServerBackend) Now() int64 { return b.S.Now() }

type serverTable struct{ t *core.Table }

func (st *serverTable) Schema() *schema.Schema { return st.t.Schema() }
func (st *serverTable) TTL() int64             { return st.t.TTL() }
func (st *serverTable) Insert(rows []schema.Row) error {
	return st.t.Insert(rows)
}
func (st *serverTable) Select(q core.Query) (RowIter, error) {
	it, err := st.t.Query(q)
	if err != nil {
		return nil, err
	}
	return it, nil
}
func (st *serverTable) Latest(prefix []ltval.Value) (schema.Row, bool, error) {
	return st.t.LatestRow(prefix)
}
func (st *serverTable) Delete(q core.Query, filter func(schema.Row) bool) (int64, error) {
	return st.t.DeleteWhere(q, filter)
}
func (st *serverTable) Stats() (metric.List, error)       { return st.t.Metrics(), nil }
func (st *serverTable) AddColumn(col schema.Column) error { return st.t.AddColumn(col) }
func (st *serverTable) WidenColumn(name string) error     { return st.t.WidenColumn(name) }
func (st *serverTable) AlterTTL(ttl int64) error          { return st.t.AlterTTL(ttl) }

// ClientBackend executes statements over the wire protocol — the paper's
// deployment, where the adaptor lives in the application process (§3.1).
type ClientBackend struct {
	C *client.Client
}

var _ Backend = (*ClientBackend)(nil)

// OpenTable implements Backend.
func (b *ClientBackend) OpenTable(name string) (Table, error) {
	t, err := b.C.OpenTable(name)
	if err != nil {
		return nil, err
	}
	return &clientTable{t: t}, nil
}

// CreateTable implements Backend.
func (b *ClientBackend) CreateTable(name string, sc *schema.Schema, ttl int64) error {
	return b.C.CreateTable(name, sc, ttl)
}

// DropTable implements Backend.
func (b *ClientBackend) DropTable(name string) error { return b.C.DropTable(name) }

// ListTables implements Backend.
func (b *ClientBackend) ListTables() ([]string, error) { return b.C.ListTables() }

// FlushTable implements Backend.
func (b *ClientBackend) FlushTable(name string) error {
	t, err := b.C.OpenTable(name)
	if err != nil {
		return err
	}
	return t.FlushTable()
}

// Now implements Backend. The client has no server-clock RPC; wall time is
// what the paper's applications use.
func (b *ClientBackend) Now() int64 {
	return clock.Real{}.Now()
}

type clientTable struct{ t *client.Table }

func (ct *clientTable) Schema() *schema.Schema { return ct.t.Schema() }
func (ct *clientTable) TTL() int64             { return ct.t.TTL() }
func (ct *clientTable) Insert(rows []schema.Row) error {
	return ct.t.InsertNow(rows)
}
func (ct *clientTable) Select(q core.Query) (RowIter, error) {
	cq := client.Query{
		Lower: q.Lower, Upper: q.Upper,
		LowerInc: q.LowerInc, UpperInc: q.UpperInc,
		MinTs: q.MinTs, MaxTs: q.MaxTs,
		Descending: q.Descending, Limit: q.Limit,
	}
	return ct.t.Query(cq), nil
}
func (ct *clientTable) Latest(prefix []ltval.Value) (schema.Row, bool, error) {
	row, found, err := ct.t.LatestRow(prefix)
	return row, found, err
}
func (ct *clientTable) Delete(q core.Query, filter func(schema.Row) bool) (int64, error) {
	if filter != nil {
		return 0, fmt.Errorf("sql: DELETE over the wire supports only key/timestamp bounds; run residual predicates against an embedded server")
	}
	return ct.t.DeleteRange(client.Query{
		Lower: q.Lower, Upper: q.Upper,
		LowerInc: q.LowerInc, UpperInc: q.UpperInc,
		MinTs: q.MinTs, MaxTs: q.MaxTs,
	})
}
func (ct *clientTable) Stats() (metric.List, error) { return ct.t.Stats() }
func (ct *clientTable) AddColumn(col schema.Column) error {
	return ct.t.AddColumn(col.Name, col.Type, col.Default)
}
func (ct *clientTable) WidenColumn(name string) error { return ct.t.WidenColumn(name) }
func (ct *clientTable) AlterTTL(ttl int64) error      { return ct.t.AlterTTL(ttl) }
