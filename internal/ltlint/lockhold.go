package ltlint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockHold flags the deadlock shape the write pipeline must avoid:
// blocking on a channel — send, receive, or a select with no default —
// or on a sync.WaitGroup while holding a mutex. A flush worker that
// needs that same mutex to make progress can then never run, and every
// inserter wedges behind the lock (DESIGN §9).
//
// The held-lock walk is shared with lockorder (see lockWalk).
// sync.Cond.Wait is exempt — it releases the mutex while parked — and
// the WaitGroup is told from the Cond by the callee's type. Bodies of `go`
// statements and of function literals that are not immediately invoked
// run outside the critical section and are scanned as their own roots.
var LockHold = &Analyzer{
	Name: "lockhold",
	Doc: "a blocking channel op or WaitGroup wait while holding a mutex wedges " +
		"the flush pipeline behind the lock (DESIGN §9's deadlock shape)",
	Run: runLockHold,
}

func runLockHold(p *Pass) error {
	w := &lockWalk{prog: p.Prog, visit: func(n ast.Node, held heldLocks) {
		if len(held) > 0 {
			checkBlocking(p, n, held)
		}
	}}
	for _, pkg := range p.Prog.Pkgs {
		for _, f := range pkg.Files {
			if f.IsTest {
				continue
			}
			// Every declaration and every function literal is a root:
			// literals run on their own goroutine or at call time.
			ast.Inspect(f.AST, func(n ast.Node) bool {
				switch fn := n.(type) {
				case *ast.FuncDecl:
					if fn.Body != nil {
						w.block(fn.Body.List, nil)
					}
				case *ast.FuncLit:
					w.block(fn.Body.List, nil)
				}
				return true
			})
		}
	}
	return nil
}

// checkBlocking reports n if it blocks while the locks in held are taken.
func checkBlocking(p *Pass, n ast.Node, held heldLocks) {
	switch e := n.(type) {
	case *ast.SendStmt:
		p.Reportf(e.Pos(), "channel send while holding %s; the flush pipeline "+
			"can wedge behind the lock — release it first or use a select with default", held)
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			p.Reportf(e.Pos(), "channel receive while holding %s; the flush pipeline "+
				"can wedge behind the lock — release it before waiting", held)
		}
	case *ast.SelectStmt:
		if !selectHasDefault(e) {
			p.Reportf(e.Pos(), "blocking select while holding %s; the flush pipeline "+
				"can wedge behind the lock — release it first or add a default case", held)
		}
	case *ast.CallExpr:
		if p.Prog.calleeKey(e) == "sync.WaitGroup.Wait" {
			p.Reportf(e.Pos(), "%s.Wait() while holding %s; a WaitGroup wait "+
				"under the lock deadlocks against workers that need it",
				types.ExprString(e.Fun.(*ast.SelectorExpr).X), held)
		}
	}
}

// heldLocks maps each held lock's printed receiver ("t.mu") to its lock
// class ("littletable/internal/core.Table.mu"), or "" when the receiver
// is not a field of a program type.
type heldLocks map[string]string

// String lists the held receivers in order, for messages.
func (h heldLocks) String() string {
	names := make([]string, 0, len(h))
	for k := range h {
		names = append(names, k)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// classes returns the held lock classes, sorted.
func (h heldLocks) classes() []string {
	var out []string
	for _, cls := range h {
		if cls != "" {
			out = append(out, cls)
		}
	}
	sort.Strings(out)
	return out
}

// A lockWalk walks one function body in statement order, tracking the
// sync locks held at each point, and hands every node that runs there to
// its visitors. Nested blocks get a branch-local copy of the held set, so
// an unlock inside one branch does not leak out; `defer x.Unlock()` holds
// the lock to the end of its statement list; `go` bodies and function
// literals run later without these locks and are not entered, while an
// immediately invoked literal runs here and is.
type lockWalk struct {
	prog *Program
	// visit sees each node that runs with held taken: statements and
	// expressions, including a select before its clauses are walked.
	visit func(n ast.Node, held heldLocks)
	// acquire, if set, sees each Lock/RLock before it joins held.
	acquire func(class string, pos token.Pos, held heldLocks)
}

func (w *lockWalk) block(stmts []ast.Stmt, outer heldLocks) {
	held := make(heldLocks, len(outer))
	for k, v := range outer {
		held[k] = v
	}
	for _, stmt := range stmts {
		recv, kind := w.lockOp(stmt)
		switch kind {
		case "Lock", "RLock":
			class := w.classOf(recv)
			if w.acquire != nil {
				w.acquire(class, stmt.Pos(), held)
			}
			held[types.ExprString(recv)] = class
		case "Unlock", "RUnlock":
			delete(held, types.ExprString(recv))
		case "defer Unlock", "defer RUnlock":
			// The lock is held to the end of this list.
		default:
			w.stmt(stmt, held)
		}
	}
}

func (w *lockWalk) stmt(stmt ast.Stmt, held heldLocks) {
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		w.block(s.List, held)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, held)
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.expr(s.Cond, held)
		w.block(s.Body.List, held)
		if s.Else != nil {
			w.stmt(s.Else, held)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.expr(s.Cond, held)
		if s.Post != nil {
			w.stmt(s.Post, held)
		}
		w.block(s.Body.List, held)
	case *ast.RangeStmt:
		w.expr(s.X, held)
		w.block(s.Body.List, held)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.expr(s.Tag, held)
		w.clauses(s.Body, held)
	case *ast.TypeSwitchStmt:
		w.clauses(s.Body, held)
	case *ast.SelectStmt:
		// The comm ops themselves are select-guarded; clause bodies run
		// with the locks still held.
		w.visit(s, held)
		w.clauses(s.Body, held)
	case *ast.GoStmt:
		// The spawned body runs outside the critical section.
	default:
		w.expr(stmt, held)
	}
}

func (w *lockWalk) clauses(body *ast.BlockStmt, held heldLocks) {
	for _, c := range body.List {
		switch cc := c.(type) {
		case *ast.CaseClause:
			w.block(cc.Body, held)
		case *ast.CommClause:
			w.block(cc.Body, held)
		}
	}
}

// expr visits every node of a leaf statement or expression.
func (w *lockWalk) expr(n ast.Node, held heldLocks) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch e := m.(type) {
		case nil, *ast.FuncLit:
			return false // a literal runs later, without these locks
		case *ast.CallExpr:
			if lit, ok := e.Fun.(*ast.FuncLit); ok {
				w.block(lit.Body.List, held)
			}
		}
		w.visit(m, held)
		return true
	})
}

// lockOp matches a statement `x.Lock()`, `x.Unlock()`, `x.RLock()` or
// `x.RUnlock()` on a sync lock, returning x and the method name, prefixed
// "defer " for a deferred call; kind is "" for any other statement.
func (w *lockWalk) lockOp(stmt ast.Stmt) (recv ast.Expr, kind string) {
	var call *ast.CallExpr
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		call, _ = s.X.(*ast.CallExpr)
	case *ast.DeferStmt:
		call = s.Call
		kind = "defer "
	}
	if call == nil {
		return nil, ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	fn := w.prog.callee(call)
	if !ok || fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, ""
	}
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock":
		return sel.X, kind + fn.Name()
	}
	return nil, ""
}

// classOf names the lock class of a receiver `x.f`: the defined type of x
// and the field, "pkgpath.Type.f", so every instance of a type shares one
// class. Receivers that are not a field of a type declared in the program
// have no class ("").
func (w *lockWalk) classOf(recv ast.Expr) string {
	sel, ok := recv.(*ast.SelectorExpr)
	if !ok || w.prog.Info.Selections[sel] == nil || w.prog.Info.Selections[sel].Kind() != types.FieldVal {
		return ""
	}
	base := namedOf(w.prog.Info.TypeOf(sel.X))
	if base == nil || w.prog.Package(base.Obj().Pkg().Path()) == nil {
		return ""
	}
	return typeKey(base) + "." + sel.Sel.Name
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}
