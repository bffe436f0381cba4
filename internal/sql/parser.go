package sql

import (
	"encoding/hex"
	"strconv"
	"strings"

	"littletable/internal/clock"
	"littletable/internal/ltval"
	"littletable/internal/schema"
)

// Parse parses one SQL statement.
func Parse(input string) (Stmt, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	st, err := p.statement()
	if err != nil {
		return nil, err
	}
	p.accept(tokSymbol, ";")
	if !p.at(tokEOF, "") {
		return nil, errf(p.cur().pos, "trailing input after statement")
	}
	return st, nil
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) at(k tokKind, text string) bool {
	t := p.cur()
	if t.kind != k {
		return false
	}
	return text == "" || t.text == text
}

// accept consumes the token if it matches.
func (p *parser) accept(k tokKind, text string) bool {
	if p.at(k, text) {
		p.i++
		return true
	}
	return false
}

// expect consumes a required token.
func (p *parser) expect(k tokKind, text string) (token, error) {
	if p.at(k, text) {
		return p.next(), nil
	}
	t := p.cur()
	want := text
	if want == "" {
		want = map[tokKind]string{tokIdent: "identifier", tokNumber: "number", tokString: "string"}[k]
	}
	return token{}, errf(t.pos, "expected %s, found %q", want, t.text)
}

func (p *parser) ident() (string, error) {
	// Allow keywords that double as common column names (KEY, TTL would be
	// confusing; restrict to pure identifiers).
	t, err := p.expect(tokIdent, "")
	if err != nil {
		return "", err
	}
	return t.text, nil
}

func (p *parser) statement() (Stmt, error) {
	t := p.cur()
	if t.kind != tokKeyword {
		return nil, errf(t.pos, "expected statement keyword, found %q", t.text)
	}
	switch t.text {
	case "SELECT":
		return p.selectStmt()
	case "INSERT":
		return p.insertStmt()
	case "CREATE":
		return p.createStmt()
	case "DROP":
		return p.dropStmt()
	case "SHOW":
		p.next()
		if p.accept(tokKeyword, "STATS") {
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &ShowStatsStmt{Table: name}, nil
		}
		if _, err := p.expect(tokKeyword, "TABLES"); err != nil {
			return nil, err
		}
		return &ShowTablesStmt{}, nil
	case "DESCRIBE":
		p.next()
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &DescribeStmt{Table: name}, nil
	case "ALTER":
		return p.alterStmt()
	case "DELETE":
		p.next()
		if _, err := p.expect(tokKeyword, "FROM"); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		st := &DeleteStmt{Table: name}
		if _, err := p.expect(tokKeyword, "WHERE"); err != nil {
			// Deleting a whole table is DROP + CREATE (§3.5); an
			// unconditioned DELETE is almost certainly a mistake.
			return nil, err
		}
		w, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		st.Where = w
		return st, nil
	case "FLUSH":
		p.next()
		if _, err := p.expect(tokKeyword, "TABLE"); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &FlushStmt{Table: name}, nil
	default:
		return nil, errf(t.pos, "unsupported statement %q", t.text)
	}
}

func (p *parser) selectStmt() (Stmt, error) {
	p.next() // SELECT
	// SELECT LATEST FROM t WHERE ...
	if p.accept(tokKeyword, "LATEST") {
		if _, err := p.expect(tokKeyword, "FROM"); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		st := &LatestStmt{Table: name}
		if p.accept(tokKeyword, "WHERE") {
			w, err := p.orExpr()
			if err != nil {
				return nil, err
			}
			st.Where = w
		}
		return st, nil
	}
	st := &SelectStmt{}
	for {
		item, err := p.selectItem()
		if err != nil {
			return nil, err
		}
		st.Items = append(st.Items, item)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st.Table = name
	if p.accept(tokKeyword, "WHERE") {
		w, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		st.Where = w
	}
	if p.accept(tokKeyword, "GROUP") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			st.GroupBy = append(st.GroupBy, col)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	if p.accept(tokKeyword, "ORDER") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			ok := OrderKey{Col: col}
			if p.accept(tokKeyword, "DESC") {
				ok.Desc = true
			} else {
				p.accept(tokKeyword, "ASC")
			}
			st.OrderBy = append(st.OrderBy, ok)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	if p.accept(tokKeyword, "LIMIT") {
		t, err := p.expect(tokNumber, "")
		if err != nil {
			return nil, err
		}
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return nil, errf(t.pos, "invalid LIMIT %q", t.text)
		}
		st.Limit = n
	}
	return st, nil
}

func (p *parser) selectItem() (SelectItem, error) {
	t := p.cur()
	if p.accept(tokSymbol, "*") {
		return SelectItem{Star: true}, nil
	}
	if _, isAgg := aggFuncs[t.text]; isAgg && t.kind == tokKeyword {
		p.next()
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return SelectItem{}, err
		}
		item := SelectItem{Agg: t.text}
		if p.accept(tokSymbol, "*") {
			if t.text != "COUNT" {
				return SelectItem{}, errf(t.pos, "%s(*) is not valid", t.text)
			}
		} else {
			col, err := p.ident()
			if err != nil {
				return SelectItem{}, err
			}
			item.Col = col
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return SelectItem{}, err
		}
		if p.accept(tokKeyword, "AS") {
			alias, err := p.ident()
			if err != nil {
				return SelectItem{}, err
			}
			item.Alias = alias
		}
		return item, nil
	}
	col, err := p.ident()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Col: col}
	if p.accept(tokKeyword, "AS") {
		alias, err := p.ident()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = alias
	}
	return item, nil
}

// orExpr := andExpr (OR andExpr)*
func (p *parser) orExpr() (Expr, error) {
	left, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "OR") {
		right, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		left = &Logic{Op: "OR", Left: left, Right: right}
	}
	return left, nil
}

// andExpr := unary (AND unary)*
func (p *parser) andExpr() (Expr, error) {
	left, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "AND") {
		right, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		left = &Logic{Op: "AND", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) unaryExpr() (Expr, error) {
	if p.accept(tokKeyword, "NOT") {
		e, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &Not{E: e}, nil
	}
	if p.accept(tokSymbol, "(") {
		e, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	return p.comparison()
}

// comparison := operand (op operand | BETWEEN operand AND operand)
func (p *parser) comparison() (Expr, error) {
	left, err := p.operand()
	if err != nil {
		return nil, err
	}
	t := p.cur()
	if p.accept(tokKeyword, "BETWEEN") {
		col, ok := left.(*ColRef)
		if !ok {
			return nil, errf(t.pos, "BETWEEN requires a column on the left")
		}
		lo, err := p.operand()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "AND"); err != nil {
			return nil, err
		}
		hi, err := p.operand()
		if err != nil {
			return nil, err
		}
		return &Between{Col: col, Lo: lo, Hi: hi, Pos: t.pos}, nil
	}
	if t.kind == tokSymbol {
		op := t.text
		if op == "<>" {
			op = "!="
		}
		switch op {
		case "=", "!=", "<", "<=", ">", ">=":
			p.next()
			right, err := p.operand()
			if err != nil {
				return nil, err
			}
			return &Cmp{Op: op, Left: left, Right: right, Pos: t.pos}, nil
		}
	}
	return nil, errf(t.pos, "expected comparison operator, found %q", t.text)
}

// operand := column | literal | NOW() [± duration]
func (p *parser) operand() (Expr, error) {
	t := p.cur()
	switch {
	case t.kind == tokIdent:
		p.next()
		return &ColRef{Name: t.text, Pos: t.pos}, nil
	case t.kind == tokKeyword && t.text == "NOW":
		p.next()
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		now := &NowExpr{Pos: t.pos}
		for {
			if p.accept(tokSymbol, "-") {
				d, err := p.duration()
				if err != nil {
					return nil, err
				}
				now.OffsetUs -= d
			} else if p.accept(tokSymbol, "+") {
				d, err := p.duration()
				if err != nil {
					return nil, err
				}
				now.OffsetUs += d
			} else {
				break
			}
		}
		return now, nil
	case t.kind == tokNumber || (t.kind == tokSymbol && t.text == "-"):
		return p.numberLit()
	case t.kind == tokString:
		p.next()
		s := t.text
		return &Lit{Str: &s, Pos: t.pos}, nil
	case t.kind == tokBlob:
		p.next()
		raw, err := hex.DecodeString(t.text)
		if err != nil {
			return nil, errf(t.pos, "invalid blob hex: %v", err)
		}
		return &Lit{Blob: raw, Pos: t.pos}, nil
	default:
		return nil, errf(t.pos, "expected value, found %q", t.text)
	}
}

func (p *parser) numberLit() (Expr, error) {
	neg := p.accept(tokSymbol, "-")
	t, err := p.expect(tokNumber, "")
	if err != nil {
		return nil, err
	}
	l := &Lit{IsNumber: true, Pos: t.pos}
	if strings.ContainsAny(t.text, ".eE") {
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, errf(t.pos, "invalid number %q", t.text)
		}
		if neg {
			f = -f
		}
		l.IsFloat = true
		l.Float = f
		l.Int = int64(f)
	} else {
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, errf(t.pos, "invalid integer %q", t.text)
		}
		if neg {
			v = -v
		}
		l.Int = v
		l.Float = float64(v)
	}
	return l, nil
}

// duration := INTERVAL? number unit — e.g. "7d", "INTERVAL 1 h", "90s".
// The lexer splits "7d" into number then ident.
func (p *parser) duration() (int64, error) {
	p.accept(tokKeyword, "INTERVAL")
	t, err := p.expect(tokNumber, "")
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(t.text, 10, 64)
	if err != nil {
		return 0, errf(t.pos, "invalid duration %q", t.text)
	}
	unit := int64(clock.Microsecond)
	if p.cur().kind == tokIdent {
		u := strings.ToLower(p.next().text)
		switch u {
		case "us":
			unit = clock.Microsecond
		case "ms":
			unit = clock.Millisecond
		case "s", "sec", "second", "seconds":
			unit = clock.Second
		case "m", "min", "minute", "minutes":
			unit = clock.Minute
		case "h", "hour", "hours":
			unit = clock.Hour
		case "d", "day", "days":
			unit = clock.Day
		case "w", "week", "weeks":
			unit = clock.Week
		default:
			return 0, errf(t.pos, "unknown duration unit %q", u)
		}
	}
	return n * unit, nil
}

func (p *parser) insertStmt() (Stmt, error) {
	p.next() // INSERT
	if _, err := p.expect(tokKeyword, "INTO"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &InsertStmt{Table: name}
	if p.accept(tokSymbol, "(") {
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			st.Columns = append(st.Columns, col)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tokKeyword, "VALUES"); err != nil {
		return nil, err
	}
	for {
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			v, err := p.operand()
			if err != nil {
				return nil, err
			}
			row = append(row, v)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		st.Rows = append(st.Rows, row)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	return st, nil
}

func (p *parser) createStmt() (Stmt, error) {
	p.next() // CREATE
	if _, err := p.expect(tokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	st := &CreateTableStmt{Table: name}
	for {
		if p.accept(tokKeyword, "PRIMARY") {
			if _, err := p.expect(tokKeyword, "KEY"); err != nil {
				return nil, err
			}
			if _, err := p.expect(tokSymbol, "("); err != nil {
				return nil, err
			}
			for {
				col, err := p.ident()
				if err != nil {
					return nil, err
				}
				st.Key = append(st.Key, col)
				if !p.accept(tokSymbol, ",") {
					break
				}
			}
			if _, err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
		} else {
			col, err := p.columnDef()
			if err != nil {
				return nil, err
			}
			st.Columns = append(st.Columns, col)
		}
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	if p.accept(tokKeyword, "TTL") {
		d, err := p.duration()
		if err != nil {
			return nil, err
		}
		st.TTL = d
	}
	return st, nil
}

func (p *parser) columnDef() (schema.Column, error) {
	name, err := p.ident()
	if err != nil {
		return schema.Column{}, err
	}
	tt, err := p.expect(tokIdent, "")
	if err != nil {
		return schema.Column{}, err
	}
	typ, err := ltval.ParseType(strings.ToLower(tt.text))
	if err != nil {
		return schema.Column{}, errf(tt.pos, "unknown type %q", tt.text)
	}
	col := schema.Column{Name: name, Type: typ}
	if p.accept(tokKeyword, "DEFAULT") {
		v, err := p.operand()
		if err != nil {
			return schema.Column{}, err
		}
		lit, ok := v.(*Lit)
		if !ok {
			return schema.Column{}, errf(tt.pos, "DEFAULT must be a literal")
		}
		d, err := litToValue(lit, typ)
		if err != nil {
			return schema.Column{}, err
		}
		col.Default = d
	}
	return col, nil
}

func (p *parser) dropStmt() (Stmt, error) {
	p.next() // DROP
	if _, err := p.expect(tokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	return &DropTableStmt{Table: name}, nil
}

func (p *parser) alterStmt() (Stmt, error) {
	p.next() // ALTER
	if _, err := p.expect(tokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &AlterStmt{Table: name}
	t := p.cur()
	switch {
	case p.accept(tokKeyword, "ADD"):
		p.accept(tokKeyword, "COLUMN")
		col, err := p.columnDef()
		if err != nil {
			return nil, err
		}
		st.AddColumn = &col
	case p.accept(tokKeyword, "WIDEN"):
		p.accept(tokKeyword, "COLUMN")
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		st.WidenColumn = col
	case p.accept(tokKeyword, "SET"):
		if _, err := p.expect(tokKeyword, "TTL"); err != nil {
			return nil, err
		}
		d, err := p.duration()
		if err != nil {
			return nil, err
		}
		st.SetTTL = &d
	default:
		return nil, errf(t.pos, "expected ADD, WIDEN, or SET after ALTER TABLE")
	}
	return st, nil
}
