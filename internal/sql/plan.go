package sql

import (
	"fmt"

	"littletable/internal/core"
	"littletable/internal/ltval"
	"littletable/internal/schema"
)

// The planner translates a WHERE clause into the engine's native query
// shape — a two-dimensional bounding box of a primary-key range and a
// timestamp range (§3.1) — plus a residual filter for whatever the box
// cannot express. This is the job the paper's SQLite adaptor does when it
// pushes virtual-table constraints down to the server.

// plan is a compiled SELECT lower half: the box plus residual predicate.
type plan struct {
	q        core.Query
	residual Expr // may be nil
	// exact reports that the box alone expresses the WHERE clause — every
	// conjunct was absorbed into key or timestamp bounds — so the residual
	// is redundant. DELETE uses this to ship box-only deletions over the
	// wire and SELECT to skip per-row re-evaluation.
	exact bool
}

// planWhere compiles where into a box over sc. now resolves NOW().
func planWhere(sc *schema.Schema, where Expr, now int64) (plan, error) {
	pl := plan{q: core.NewQuery()}
	if where == nil {
		return pl, nil
	}
	pl.residual = where
	conjuncts := flattenAnd(where)
	if conjuncts == nil {
		// Top-level OR or NOT: no pushdown, full scan + filter.
		return pl, nil
	}

	// Gather per-key-column constraints.
	type bound struct {
		val ltval.Value
		inc bool
		set bool
	}
	type colBounds struct {
		eq     *ltval.Value
		lo, hi bound
	}
	kb := make([]colBounds, sc.KeyLen())
	keyPos := make(map[string]int, sc.KeyLen())
	for i, k := range sc.Key {
		keyPos[sc.Columns[k].Name] = i
	}
	tsKeyIdx := sc.KeyLen() - 1

	constrained := make([]bool, sc.KeyLen())
	allAbsorbable := true // every conjunct is a key-column constraint
	apply := func(ki int, op string, v ltval.Value) {
		cb := &kb[ki]
		switch op {
		case "=":
			if cb.eq != nil && !cb.eq.Equal(v) {
				// Conflicting equalities: the box keeps only one, so the
				// residual must stay authoritative.
				allAbsorbable = false
			}
			cb.eq = &v
		case ">":
			if !cb.lo.set || v.Compare(cb.lo.val) >= 0 {
				cb.lo = bound{val: v, inc: false, set: true}
			}
		case ">=":
			if !cb.lo.set || v.Compare(cb.lo.val) > 0 {
				cb.lo = bound{val: v, inc: true, set: true}
			}
		case "<":
			if !cb.hi.set || v.Compare(cb.hi.val) <= 0 {
				cb.hi = bound{val: v, inc: false, set: true}
			}
		case "<=":
			if !cb.hi.set || v.Compare(cb.hi.val) < 0 {
				cb.hi = bound{val: v, inc: true, set: true}
			}
		}
	}

	for _, c := range conjuncts {
		col, op, lit, ok, err := asColConstraint(sc, c, now)
		if err != nil {
			return plan{}, err
		}
		if !ok {
			allAbsorbable = false
			continue // stays in the residual
		}
		ki, isKey := keyPos[col]
		if !isKey {
			allAbsorbable = false
			continue
		}
		apply(ki, op, lit)
		constrained[ki] = true
	}

	// Timestamp bounds: the final key column doubles as the time dimension.
	if cb := kb[tsKeyIdx]; cb.eq != nil {
		pl.q.MinTs, pl.q.MaxTs = cb.eq.Int, cb.eq.Int
		if cb.lo.set || cb.hi.set {
			// eq ∧ range on ts: the box keeps only the equality.
			allAbsorbable = false
		}
	} else {
		if cb.lo.set {
			pl.q.MinTs = cb.lo.val.Int
			if !cb.lo.inc {
				pl.q.MinTs++
			}
		}
		if cb.hi.set {
			pl.q.MaxTs = cb.hi.val.Int
			if !cb.hi.inc {
				pl.q.MaxTs--
			}
		}
	}

	// Key bounds: equalities form the shared prefix; the first non-equality
	// key column may contribute a range, after which planning stops (the
	// box is a prefix rectangle, Figure 1).
	var lower, upper []ltval.Value
	lowerInc, upperInc := true, true
	encoded := make([]bool, sc.KeyLen())
	encoded[tsKeyIdx] = true // ts constraints always land in MinTs/MaxTs
	for i := 0; i < sc.KeyLen(); i++ {
		cb := kb[i]
		if cb.eq != nil {
			lower = append(lower, *cb.eq)
			upper = append(upper, *cb.eq)
			encoded[i] = true
			// An eq plus a redundant range on the same column: the range
			// did not make it into the box.
			if cb.lo.set || cb.hi.set {
				allAbsorbable = false
			}
			continue
		}
		if cb.lo.set {
			lower = append(lower, cb.lo.val)
			lowerInc = cb.lo.inc
			encoded[i] = true
		}
		if cb.hi.set {
			upper = append(upper, cb.hi.val)
			upperInc = cb.hi.inc
			encoded[i] = true
		}
		break
	}
	pl.exact = allAbsorbable
	for i, c := range constrained {
		if c && !encoded[i] {
			pl.exact = false
		}
	}
	if len(lower) > 0 {
		pl.q.Lower = lower
		pl.q.LowerInc = lowerInc
	}
	if len(upper) > 0 {
		pl.q.Upper = upper
		pl.q.UpperInc = upperInc
	}
	if pl.q.MinTs > pl.q.MaxTs {
		// Contradictory time bounds: empty result. Signal with an
		// impossible box the engine rejects gracefully; normalize instead.
		pl.q.MinTs, pl.q.MaxTs = 1, 0
	}
	return pl, nil
}

// flattenAnd returns the AND-conjuncts of e, or nil if e contains OR/NOT at
// the top level.
func flattenAnd(e Expr) []Expr {
	switch v := e.(type) {
	case *Logic:
		if v.Op != "AND" {
			return nil
		}
		l := flattenAnd(v.Left)
		r := flattenAnd(v.Right)
		if l == nil || r == nil {
			return nil
		}
		return append(l, r...)
	case *Not:
		return nil
	case *Between:
		// col BETWEEN a AND b ⇒ two conjuncts.
		return []Expr{
			&Cmp{Op: ">=", Left: v.Col, Right: v.Lo, Pos: v.Pos},
			&Cmp{Op: "<=", Left: v.Col, Right: v.Hi, Pos: v.Pos},
		}
	default:
		return []Expr{e}
	}
}

// asColConstraint recognizes `col op literal` (either side), returning the
// column name, normalized operator, and the literal coerced to the column
// type.
func asColConstraint(sc *schema.Schema, e Expr, now int64) (col string, op string, v ltval.Value, ok bool, err error) {
	c, isCmp := e.(*Cmp)
	if !isCmp {
		return "", "", ltval.Value{}, false, nil
	}
	colRef, lit := asColAndLit(c.Left, c.Right)
	op = c.Op
	if colRef == nil {
		colRef, lit = asColAndLit(c.Right, c.Left)
		op = flipOp(op)
	}
	if colRef == nil || lit == nil || op == "!=" {
		return "", "", ltval.Value{}, false, nil
	}
	i := sc.ColumnIndex(colRef.Name)
	if i < 0 {
		return "", "", ltval.Value{}, false, errf(colRef.Pos, "unknown column %q", colRef.Name)
	}
	val, err := resolveLit(lit, sc.Columns[i].Type, now)
	if err != nil {
		return "", "", ltval.Value{}, false, err
	}
	return colRef.Name, op, val, true, nil
}

func asColAndLit(a, b Expr) (*ColRef, Expr) {
	col, ok := a.(*ColRef)
	if !ok {
		return nil, nil
	}
	switch b.(type) {
	case *Lit, *NowExpr:
		return col, b
	}
	return nil, nil
}

func flipOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op
}

// resolveLit coerces a literal or NOW() expression to a column type.
func resolveLit(e Expr, t ltval.Type, now int64) (ltval.Value, error) {
	switch v := e.(type) {
	case *Lit:
		return litToValue(v, t)
	case *NowExpr:
		if t != ltval.Timestamp {
			return ltval.Value{}, errf(v.Pos, "NOW() compared to non-timestamp column")
		}
		return ltval.NewTimestamp(now + v.OffsetUs), nil
	default:
		return ltval.Value{}, fmt.Errorf("sql: not a literal")
	}
}

// evalBool evaluates a residual predicate against a row.
func evalBool(sc *schema.Schema, e Expr, row schema.Row, now int64) (bool, error) {
	switch v := e.(type) {
	case *Logic:
		l, err := evalBool(sc, v.Left, row, now)
		if err != nil {
			return false, err
		}
		if v.Op == "AND" {
			if !l {
				return false, nil
			}
			return evalBool(sc, v.Right, row, now)
		}
		if l {
			return true, nil
		}
		return evalBool(sc, v.Right, row, now)
	case *Not:
		b, err := evalBool(sc, v.E, row, now)
		return !b, err
	case *Between:
		lo := &Cmp{Op: ">=", Left: v.Col, Right: v.Lo, Pos: v.Pos}
		hi := &Cmp{Op: "<=", Left: v.Col, Right: v.Hi, Pos: v.Pos}
		b, err := evalBool(sc, lo, row, now)
		if err != nil || !b {
			return false, err
		}
		return evalBool(sc, hi, row, now)
	case *Cmp:
		return evalCmp(sc, v, row, now)
	default:
		return false, fmt.Errorf("sql: expression is not a predicate")
	}
}

func evalCmp(sc *schema.Schema, c *Cmp, row schema.Row, now int64) (bool, error) {
	lv, err := evalOperand(sc, c.Left, row, now, operandTypeHint(sc, c.Right))
	if err != nil {
		return false, err
	}
	rv, err := evalOperand(sc, c.Right, row, now, lv.Type)
	if err != nil {
		return false, err
	}
	// Numeric cross-type comparisons: int vs double compares numerically.
	cmp := compareValues(lv, rv)
	switch c.Op {
	case "=":
		return cmp == 0, nil
	case "!=":
		return cmp != 0, nil
	case "<":
		return cmp < 0, nil
	case "<=":
		return cmp <= 0, nil
	case ">":
		return cmp > 0, nil
	case ">=":
		return cmp >= 0, nil
	}
	return false, fmt.Errorf("sql: bad operator %q", c.Op)
}

func operandTypeHint(sc *schema.Schema, e Expr) ltval.Type {
	if col, ok := e.(*ColRef); ok {
		if i := sc.ColumnIndex(col.Name); i >= 0 {
			return sc.Columns[i].Type
		}
	}
	if _, ok := e.(*NowExpr); ok {
		return ltval.Timestamp
	}
	return ltval.Invalid
}

func evalOperand(sc *schema.Schema, e Expr, row schema.Row, now int64, hint ltval.Type) (ltval.Value, error) {
	switch v := e.(type) {
	case *ColRef:
		i := sc.ColumnIndex(v.Name)
		if i < 0 {
			return ltval.Value{}, errf(v.Pos, "unknown column %q", v.Name)
		}
		return row[i], nil
	case *Lit:
		t := hint
		if t == ltval.Invalid {
			// Untyped context: infer from the literal itself.
			switch {
			case v.IsNumber && v.IsFloat:
				t = ltval.Double
			case v.IsNumber:
				t = ltval.Int64
			case v.Str != nil:
				t = ltval.String
			default:
				t = ltval.Blob
			}
		}
		return litToValue(v, t)
	case *NowExpr:
		return ltval.NewTimestamp(now + v.OffsetUs), nil
	default:
		return ltval.Value{}, fmt.Errorf("sql: unsupported operand")
	}
}

// compareValues orders possibly-mixed numeric types.
func compareValues(a, b ltval.Value) int {
	an, aIsNum := asFloat(a)
	bn, bIsNum := asFloat(b)
	if aIsNum && bIsNum && a.Type != b.Type {
		return ltval.NewDouble(an).Compare(ltval.NewDouble(bn))
	}
	return a.Compare(b)
}

func asFloat(v ltval.Value) (float64, bool) {
	switch v.Type {
	case ltval.Int32, ltval.Int64, ltval.Timestamp:
		return float64(v.Int), true
	case ltval.Double:
		return v.Float, true
	}
	return 0, false
}
