package sql

import (
	"fmt"
	"sort"
	"strings"

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
	if pl.q.MinTs > pl.q.MaxTs {
		return emptyResult(s, sc)
	}
	if pl.exact {
		// The box expresses the whole WHERE; skip per-row re-evaluation.
		pl.residual = nil
	}

	// ORDER BY on the first key column descending flips the scan; any
	// other order is applied as a final sort.
	needSort := false
	if len(s.OrderBy) > 0 {
		if matchesKeyOrder(sc, s.OrderBy) {
			pl.q.Descending = s.OrderBy[0].Desc
		} else {
			needSort = true
		}
	}

	hasAgg := false
	for _, it := range s.Items {
		if it.Agg != "" {
			hasAgg = true
		}
	}
	if hasAgg || len(s.GroupBy) > 0 {
		return e.selectAggregate(s, t, sc, pl, now, needSort)
	}

	// Plain projection.
	proj, names, err := projection(s.Items, sc)
	if err != nil {
		return nil, err
	}
	it, err := t.Select(pl.q)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	res := &Result{Columns: names}
	for it.Next() {
		row := it.Row()
		if pl.residual != nil {
			keep, err := evalBool(sc, pl.residual, row, now)
			if err != nil {
				return nil, err
			}
			if !keep {
				continue
			}
		}
		out := make([]ltval.Value, len(proj))
		for i, j := range proj {
			out[i] = row[j]
		}
		res.Rows = append(res.Rows, cloneValues(out))
		if s.Limit > 0 && !needSort && len(res.Rows) >= s.Limit {
			break
		}
	}
	if err := it.Err(); err != nil {
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

func emptyResult(s *SelectStmt, sc *schema.Schema) (*Result, error) {
	proj, names, err := projection(s.Items, sc)
	_ = proj
	if err != nil {
		// Aggregate select lists fail projection; name them generically.
		names = nil
		for _, it := range s.Items {
			names = append(names, itemName(it))
		}
	}
	return &Result{Columns: names}, nil
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

// aggState accumulates one aggregate for one group.
type aggState struct {
	count int64
	sumI  int64
	sumF  float64
	min   ltval.Value
	max   ltval.Value
	seen  bool
	isF   bool
}

func (a *aggState) add(v ltval.Value) {
	a.count++
	switch v.Type {
	case ltval.Int32, ltval.Int64, ltval.Timestamp:
		a.sumI += v.Int
		a.sumF += float64(v.Int)
	case ltval.Double:
		a.isF = true
		a.sumF += v.Float
	}
	if !a.seen {
		a.min, a.max, a.seen = v, v, true
		return
	}
	if v.Compare(a.min) < 0 {
		a.min = v
	}
	if v.Compare(a.max) > 0 {
		a.max = v
	}
}

func (a *aggState) result(agg string) ltval.Value {
	switch agg {
	case "COUNT":
		return ltval.NewInt64(a.count)
	case "SUM":
		if a.isF {
			return ltval.NewDouble(a.sumF)
		}
		return ltval.NewInt64(a.sumI)
	case "AVG":
		if a.count == 0 {
			return ltval.NewDouble(0)
		}
		return ltval.NewDouble(a.sumF / float64(a.count))
	case "MIN":
		if !a.seen {
			// No NULLs in LittleTable (§3.5): empty MIN/MAX yields the
			// in-band sentinel 0, like the applications' own -1 sentinels.
			return ltval.NewInt64(0)
		}
		return a.min
	case "MAX":
		if !a.seen {
			return ltval.NewInt64(0)
		}
		return a.max
	}
	return ltval.Value{}
}

func (e *Engine) selectAggregate(s *SelectStmt, t Table, sc *schema.Schema, pl plan, now int64, needSort bool) (*Result, error) {
	// Validate: every plain item must be a GROUP BY column.
	groupIdx := make([]int, 0, len(s.GroupBy))
	inGroup := map[string]bool{}
	for _, g := range s.GroupBy {
		i := sc.ColumnIndex(g)
		if i < 0 {
			return nil, fmt.Errorf("sql: unknown GROUP BY column %q", g)
		}
		groupIdx = append(groupIdx, i)
		inGroup[g] = true
	}
	type outCol struct {
		agg    string
		colIdx int // -1 for COUNT(*)
	}
	var outs []outCol
	var names []string
	for _, it := range s.Items {
		if it.Star {
			return nil, fmt.Errorf("sql: * not allowed with aggregates")
		}
		if it.Agg == "" {
			if !inGroup[it.Col] {
				return nil, fmt.Errorf("sql: column %q must appear in GROUP BY", it.Col)
			}
			outs = append(outs, outCol{agg: "", colIdx: sc.ColumnIndex(it.Col)})
		} else {
			ci := -1
			if it.Col != "" {
				ci = sc.ColumnIndex(it.Col)
				if ci < 0 {
					return nil, fmt.Errorf("sql: unknown column %q", it.Col)
				}
			}
			outs = append(outs, outCol{agg: it.Agg, colIdx: ci})
		}
		names = append(names, itemName(it))
	}

	it, err := t.Select(pl.q)
	if err != nil {
		return nil, err
	}
	defer it.Close()

	// Hash aggregation preserving first-seen order. When the group columns
	// are a key prefix, first-seen order IS key order — the sorted-stream
	// aggregation the paper's adaptor performs "without resorting" (§3.1).
	type group struct {
		keyVals []ltval.Value
		aggs    []aggState
	}
	var order []string
	groups := map[string]*group{}
	var kb []byte
	for it.Next() {
		row := it.Row()
		if pl.residual != nil {
			keep, err := evalBool(sc, pl.residual, row, now)
			if err != nil {
				return nil, err
			}
			if !keep {
				continue
			}
		}
		kb = kb[:0]
		for _, gi := range groupIdx {
			kb = row[gi].Append(kb)
			kb = append(kb, 0xfe)
		}
		k := string(kb)
		g := groups[k]
		if g == nil {
			g = &group{aggs: make([]aggState, len(outs))}
			for _, gi := range groupIdx {
				g.keyVals = append(g.keyVals, cloneValue(row[gi]))
			}
			groups[k] = g
			order = append(order, k)
		}
		for i, oc := range outs {
			if oc.agg == "" {
				continue
			}
			if oc.colIdx < 0 {
				g.aggs[i].count++
			} else {
				g.aggs[i].add(row[oc.colIdx])
			}
		}
	}
	if err := it.Err(); err != nil {
		return nil, err
	}
	// Global aggregation (no GROUP BY) yields exactly one row even over an
	// empty selection: COUNT(*) of nothing is 0.
	if len(groupIdx) == 0 && len(order) == 0 {
		groups[""] = &group{aggs: make([]aggState, len(outs))}
		order = append(order, "")
	}

	res := &Result{Columns: names}
	for _, k := range order {
		g := groups[k]
		out := make([]ltval.Value, len(outs))
		for i, oc := range outs {
			if oc.agg == "" {
				// Find the value among group key columns.
				for gi, idx := range groupIdx {
					if idx == oc.colIdx {
						out[i] = g.keyVals[gi]
					}
				}
			} else {
				out[i] = g.aggs[i].result(oc.agg)
			}
		}
		res.Rows = append(res.Rows, out)
	}
	if needSort {
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

func cloneValue(v ltval.Value) ltval.Value {
	if v.Bytes != nil {
		b := make([]byte, len(v.Bytes))
		copy(b, v.Bytes)
		v.Bytes = b
	}
	return v
}

func cloneValues(vs []ltval.Value) []ltval.Value {
	out := make([]ltval.Value, len(vs))
	for i, v := range vs {
		out[i] = cloneValue(v)
	}
	return out
}
