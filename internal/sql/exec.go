package sql

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strings"

	"littletable/internal/agg"
	"littletable/internal/core"
	"littletable/internal/ltval"
	"littletable/internal/metric"
	"littletable/internal/schema"
)

// Backend abstracts where statements execute: in-process against a server
// (cmd/littletabled embeds one) or remotely over the wire (cmd/ltsql).
type Backend interface {
	OpenTable(name string) (Table, error)
	CreateTable(name string, sc *schema.Schema, ttl int64) error
	DropTable(name string) error
	ListTables() ([]string, error)
	FlushTable(name string) error
	// Now returns current engine time in microseconds, resolving NOW().
	Now() int64
}

// Table is the per-table surface the executor needs.
type Table interface {
	Schema() *schema.Schema
	TTL() int64
	Insert(rows []schema.Row) error
	Select(q core.Query) (RowIter, error)
	Latest(prefix []ltval.Value) (schema.Row, bool, error)
	// Delete removes the rows inside the box for which filter (nil = all)
	// holds, returning the count. Backends without server-side filtering
	// reject a non-nil filter.
	Delete(q core.Query, filter func(schema.Row) bool) (int64, error)
	// Stats reports the table's full metric list (core.Table.Metrics);
	// SHOW STATS prints one row per entry.
	Stats() (metric.List, error)
	AddColumn(col schema.Column) error
	WidenColumn(name string) error
	AlterTTL(ttl int64) error
}

// RowIter streams rows.
type RowIter interface {
	Next() bool
	Row() schema.Row
	Err() error
	Close() error
}

// Result is a statement's materialized output.
type Result struct {
	Columns []string
	Rows    [][]ltval.Value
	// RowsAffected counts inserted rows for INSERT.
	RowsAffected int
}

// Engine executes SQL statements against a Backend.
type Engine struct {
	b Backend
}

// NewEngine wraps a backend.
func NewEngine(b Backend) *Engine { return &Engine{b: b} }

// Exec parses and executes one statement.
func (e *Engine) Exec(query string) (*Result, error) {
	st, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return e.ExecStmt(st)
}

// ExecStmt executes a parsed statement.
func (e *Engine) ExecStmt(st Stmt) (*Result, error) {
	switch s := st.(type) {
	case *SelectStmt:
		return e.execSelect(s)
	case *InsertStmt:
		return e.execInsert(s)
	case *CreateTableStmt:
		sc, err := schema.New(s.Columns, s.Key)
		if err != nil {
			return nil, err
		}
		if err := e.b.CreateTable(s.Table, sc, s.TTL); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *DropTableStmt:
		if err := e.b.DropTable(s.Table); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *ShowStatsStmt:
		t, err := e.b.OpenTable(s.Table)
		if err != nil {
			return nil, err
		}
		st, err := t.Stats()
		if err != nil {
			return nil, err
		}
		res := &Result{Columns: []string{"metric", "value"}}
		for _, m := range st {
			res.Rows = append(res.Rows, []ltval.Value{
				ltval.NewString(m.Name), ltval.NewInt64(m.Value),
			})
		}
		return res, nil
	case *ShowTablesStmt:
		names, err := e.b.ListTables()
		if err != nil {
			return nil, err
		}
		res := &Result{Columns: []string{"table"}}
		for _, n := range names {
			res.Rows = append(res.Rows, []ltval.Value{ltval.NewString(n)})
		}
		return res, nil
	case *DescribeStmt:
		t, err := e.b.OpenTable(s.Table)
		if err != nil {
			return nil, err
		}
		sc := t.Schema()
		res := &Result{Columns: []string{"column", "type", "key"}}
		for i, c := range sc.Columns {
			keyPos := ""
			for ki, k := range sc.Key {
				if k == i {
					keyPos = fmt.Sprintf("%d", ki+1)
				}
			}
			res.Rows = append(res.Rows, []ltval.Value{
				ltval.NewString(c.Name), ltval.NewString(c.Type.String()), ltval.NewString(keyPos),
			})
		}
		return res, nil
	case *AlterStmt:
		t, err := e.b.OpenTable(s.Table)
		if err != nil {
			return nil, err
		}
		switch {
		case s.AddColumn != nil:
			err = t.AddColumn(*s.AddColumn)
		case s.WidenColumn != "":
			err = t.WidenColumn(s.WidenColumn)
		case s.SetTTL != nil:
			err = t.AlterTTL(*s.SetTTL)
		}
		if err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *LatestStmt:
		return e.execLatest(s)
	case *DeleteStmt:
		return e.execDelete(s)
	case *FlushStmt:
		if err := e.b.FlushTable(s.Table); err != nil {
			return nil, err
		}
		return &Result{}, nil
	default:
		return nil, fmt.Errorf("sql: unsupported statement %T", st)
	}
}

func (e *Engine) execInsert(s *InsertStmt) (*Result, error) {
	t, err := e.b.OpenTable(s.Table)
	if err != nil {
		return nil, err
	}
	sc := t.Schema()
	cols := s.Columns
	if len(cols) == 0 {
		for _, c := range sc.Columns {
			cols = append(cols, c.Name)
		}
	}
	idx := make([]int, len(cols))
	for i, name := range cols {
		j := sc.ColumnIndex(name)
		if j < 0 {
			return nil, fmt.Errorf("sql: unknown column %q", name)
		}
		idx[i] = j
	}
	now := e.b.Now()
	rows := make([]schema.Row, 0, len(s.Rows))
	for _, exprs := range s.Rows {
		if len(exprs) != len(cols) {
			return nil, fmt.Errorf("sql: row has %d values for %d columns", len(exprs), len(cols))
		}
		row := sc.DefaultsRow()
		tsSet := false
		for i, ex := range exprs {
			colIdx := idx[i]
			v, err := resolveLit(ex, sc.Columns[colIdx].Type, now)
			if err != nil {
				return nil, err
			}
			row[colIdx] = v
			if colIdx == sc.TsIndex() {
				tsSet = true
			}
		}
		if !tsSet || (row[sc.TsIndex()].Int == 0 && !explicitZeroTs(exprs, idx, sc.TsIndex())) {
			// Omitted timestamp: the server-sets-current-time rule (§3.1).
			sc.SetTs(row, now)
		}
		rows = append(rows, row)
	}
	if err := t.Insert(rows); err != nil {
		return nil, err
	}
	return &Result{RowsAffected: len(rows)}, nil
}

func explicitZeroTs(exprs []Expr, idx []int, tsIdx int) bool {
	for i, ex := range exprs {
		if idx[i] != tsIdx {
			continue
		}
		if l, ok := ex.(*Lit); ok && l.IsNumber && l.Int == 0 {
			return true
		}
	}
	return false
}

// execDelete plans the WHERE clause into the engine's box plus a residual
// predicate and bulk-deletes (§7's privacy-compliance feature). Over the
// wire only the box ships; a residual needs the in-process backend.
func (e *Engine) execDelete(s *DeleteStmt) (*Result, error) {
	t, err := e.b.OpenTable(s.Table)
	if err != nil {
		return nil, err
	}
	sc := t.Schema()
	now := e.b.Now()
	pl, err := planWhere(sc, s.Where, now)
	if err != nil {
		return nil, err
	}
	if pl.q.MinTs > pl.q.MaxTs {
		return &Result{}, nil
	}
	var filter func(schema.Row) bool
	if pl.residual != nil && !pl.exact {
		filter = func(row schema.Row) bool {
			ok, err := evalBool(sc, pl.residual, row, now)
			return err == nil && ok
		}
	}
	n, err := t.Delete(pl.q, filter)
	if err != nil {
		return nil, err
	}
	return &Result{RowsAffected: int(n)}, nil
}

func (e *Engine) execLatest(s *LatestStmt) (*Result, error) {
	t, err := e.b.OpenTable(s.Table)
	if err != nil {
		return nil, err
	}
	sc := t.Schema()
	// WHERE must be equalities on a key prefix.
	conj := flattenAnd(s.Where)
	if s.Where == nil || conj == nil {
		return nil, fmt.Errorf("sql: SELECT LATEST needs WHERE with key equalities")
	}
	now := e.b.Now()
	byCol := map[string]ltval.Value{}
	for _, c := range conj {
		col, op, v, ok, err := asColConstraint(sc, c, now)
		if err != nil {
			return nil, err
		}
		if !ok || op != "=" {
			return nil, fmt.Errorf("sql: SELECT LATEST supports only column = literal")
		}
		byCol[col] = v
	}
	var prefix []ltval.Value
	for _, k := range sc.Key {
		v, ok := byCol[sc.Columns[k].Name]
		if !ok {
			break
		}
		prefix = append(prefix, v)
	}
	if len(prefix) == 0 || len(prefix) != len(byCol) {
		return nil, fmt.Errorf("sql: SELECT LATEST needs equalities on a key prefix")
	}
	row, found, err := t.Latest(prefix)
	if err != nil {
		return nil, err
	}
	res := &Result{Columns: columnNames(sc)}
	if found {
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func columnNames(sc *schema.Schema) []string {
	out := make([]string, len(sc.Columns))
	for i, c := range sc.Columns {
		out[i] = c.Name
	}
	return out
}

func (e *Engine) execSelect(s *SelectStmt) (*Result, error) {
	t, err := e.b.OpenTable(s.Table)
	if err != nil {
		return nil, err
	}
	sc := t.Schema()
	now := e.b.Now()
	pl, err := planWhere(sc, s.Where, now)
	if err != nil {
		return nil, err
	}
	if pl.exact {
		// The box expresses the whole WHERE; skip per-row re-evaluation.
		pl.residual = nil
	}

	if len(s.GroupBy) > 0 || slices.ContainsFunc(s.Items, func(it SelectItem) bool { return it.Agg != "" }) {
		return e.selectAggregate(s, t, sc, pl, now)
	}

	// ORDER BY on a key prefix in one direction sets the scan direction;
	// any other order is applied as a final sort.
	needSort := false
	if len(s.OrderBy) > 0 {
		if matchesKeyOrder(sc, s.OrderBy) {
			pl.q.Descending = s.OrderBy[0].Desc
		} else {
			needSort = true
		}
	}

	// Plain projection.
	proj, names, err := projection(s.Items, sc)
	if err != nil {
		return nil, err
	}
	res := &Result{Columns: names}
	err = selectRows(t, sc, pl, now, func(row schema.Row) bool {
		out := make([]ltval.Value, len(proj))
		for i, j := range proj {
			out[i] = row[j]
			out[i].Bytes = bytes.Clone(row[j].Bytes) // the iterator reuses row buffers
		}
		res.Rows = append(res.Rows, out)
		return s.Limit <= 0 || needSort || len(res.Rows) < s.Limit
	})
	if err != nil {
		return nil, err
	}
	if needSort {
		if err := sortResult(res, s.OrderBy); err != nil {
			return nil, err
		}
		if s.Limit > 0 && len(res.Rows) > s.Limit {
			res.Rows = res.Rows[:s.Limit]
		}
	}
	return res, nil
}

// selectRows feeds f each row in pl's box that passes the residual, until
// f returns false. An inverted time box selects nothing without a scan:
// the engine rejects one as a bad query.
func selectRows(t Table, sc *schema.Schema, pl plan, now int64, f func(schema.Row) bool) error {
	if pl.q.MinTs > pl.q.MaxTs {
		return nil
	}
	it, err := t.Select(pl.q)
	if err != nil {
		return err
	}
	defer it.Close()
	for it.Next() {
		row := it.Row()
		if pl.residual != nil {
			keep, err := evalBool(sc, pl.residual, row, now)
			if err != nil {
				return err
			}
			if !keep {
				continue
			}
		}
		if !f(row) {
			break
		}
	}
	return it.Err()
}

// projection resolves plain select items to column indexes.
func projection(items []SelectItem, sc *schema.Schema) ([]int, []string, error) {
	var proj []int
	var names []string
	for _, it := range items {
		switch {
		case it.Star:
			for i, c := range sc.Columns {
				proj = append(proj, i)
				names = append(names, c.Name)
			}
		case it.Agg != "":
			return nil, nil, fmt.Errorf("sql: aggregate %s mixed with plain projection requires GROUP BY", it.Agg)
		default:
			i := sc.ColumnIndex(it.Col)
			if i < 0 {
				return nil, nil, fmt.Errorf("sql: unknown column %q", it.Col)
			}
			proj = append(proj, i)
			names = append(names, itemName(it))
		}
	}
	return proj, names, nil
}

func itemName(it SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	if it.Agg != "" {
		col := it.Col
		if col == "" {
			col = "*"
		}
		return strings.ToLower(it.Agg) + "(" + col + ")"
	}
	return it.Col
}

// aggFuncs names the SQL aggregates and maps each onto the one fold
// (internal/agg) that AggQuery, the router merge and rollups also run.
var aggFuncs = map[string]agg.Func{
	"COUNT": agg.Count, "SUM": agg.Sum, "AVG": agg.Avg, "MIN": agg.Min, "MAX": agg.Max,
}

// selectAggregate folds the selected rows through one agg.Accumulator
// grouped by the GROUP BY columns (any columns, key or not), as the
// paper's adaptor aggregates the merge-sorted stream LittleTable returns
// (§3.1). Groups come out sorted by their GROUP BY values; any ORDER BY is
// a final sort over them.
func (e *Engine) selectAggregate(s *SelectStmt, t Table, sc *schema.Schema, pl plan, now int64) (*Result, error) {
	groupIdx := make([]int, len(s.GroupBy))
	for i, g := range s.GroupBy {
		groupIdx[i] = sc.ColumnIndex(g)
		if groupIdx[i] < 0 {
			return nil, fmt.Errorf("sql: unknown GROUP BY column %q", g)
		}
	}
	// Each output column is a group-key position or an aggregate index.
	type outCol struct {
		key, agg int // -1 when unused
	}
	var (
		outs  []outCol
		names []string
		spec  agg.Spec
	)
	for _, it := range s.Items {
		if it.Star {
			return nil, fmt.Errorf("sql: * not allowed with aggregates")
		}
		names = append(names, itemName(it))
		if it.Agg == "" {
			k := slices.Index(s.GroupBy, it.Col)
			if k < 0 {
				return nil, fmt.Errorf("sql: column %q must appear in GROUP BY", it.Col)
			}
			outs = append(outs, outCol{key: k, agg: -1})
			continue
		}
		if it.Col != "" && sc.ColumnIndex(it.Col) < 0 {
			return nil, fmt.Errorf("sql: unknown column %q", it.Col)
		}
		outs = append(outs, outCol{key: -1, agg: len(spec.Aggs)})
		spec.Aggs = append(spec.Aggs, agg.Agg{Func: aggFuncs[it.Agg], Col: it.Col})
	}
	res := &Result{Columns: names}
	if len(spec.Aggs) == 0 {
		// GROUP BY with no aggregate still folds, to find the groups.
		spec.Aggs = []agg.Agg{{Func: agg.Count}}
	}
	acc, err := agg.NewAccumulatorBy(sc, spec, groupIdx)
	if err != nil {
		return nil, fmt.Errorf("sql: %w", err)
	}

	err = selectRows(t, sc, pl, now, func(row schema.Row) bool {
		acc.Add(row)
		return true
	})
	if err != nil {
		return nil, err
	}
	groups := agg.Finalize(spec, acc.Groups())
	if len(groupIdx) == 0 && len(groups) == 0 {
		// Global aggregation yields exactly one row even over an empty
		// selection: COUNT 0, AVG 0.0, and 0 for SUM, MIN and MAX.
		vals := make([]ltval.Value, len(spec.Aggs))
		for i, a := range spec.Aggs {
			vals[i] = ltval.NewInt64(0)
			if a.Func == agg.Avg {
				vals[i] = ltval.NewDouble(0)
			}
		}
		groups = []agg.Output{{Values: vals}}
	}
	for _, g := range groups {
		out := make([]ltval.Value, len(outs))
		for i, oc := range outs {
			if oc.agg < 0 {
				out[i] = g.Key[oc.key]
				continue
			}
			out[i] = g.Values[oc.agg]
			if out[i].Type == ltval.Invalid {
				// MIN or MAX saw only NaN: no value to report, so the
				// column's zero stands in, as in a rollup row.
				out[i] = ltval.Zero(sc.Columns[sc.ColumnIndex(spec.Aggs[oc.agg].Col)].Type)
			}
		}
		res.Rows = append(res.Rows, out)
	}
	if len(s.OrderBy) > 0 {
		if err := sortResult(res, s.OrderBy); err != nil {
			return nil, err
		}
	}
	if s.Limit > 0 && len(res.Rows) > s.Limit {
		res.Rows = res.Rows[:s.Limit]
	}
	return res, nil
}

// matchesKeyOrder reports whether the ORDER BY is exactly a prefix of the
// primary key with a uniform direction (the only order the engine can
// stream natively).
func matchesKeyOrder(sc *schema.Schema, order []OrderKey) bool {
	if len(order) > sc.KeyLen() {
		return false
	}
	for i, ok := range order {
		if ok.Col != sc.Columns[sc.Key[i]].Name {
			return false
		}
		if ok.Desc != order[0].Desc {
			return false
		}
	}
	return true
}

// sortResult sorts materialized output rows by the order keys.
func sortResult(res *Result, order []OrderKey) error {
	idx := make([]int, len(order))
	for i, ok := range order {
		found := -1
		for j, name := range res.Columns {
			if name == ok.Col {
				found = j
			}
		}
		if found < 0 {
			return fmt.Errorf("sql: ORDER BY column %q not in output", ok.Col)
		}
		idx[i] = found
	}
	sort.SliceStable(res.Rows, func(a, b int) bool {
		for i, j := range idx {
			c := compareValues(res.Rows[a][j], res.Rows[b][j])
			if c != 0 {
				if order[i].Desc {
					return c > 0
				}
				return c < 0
			}
		}
		return false
	})
	return nil
}
