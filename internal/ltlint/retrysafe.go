package ltlint

import (
	"go/ast"
	"go/token"
	"strings"
)

// RetrySafe guards the PR 6 retry contract: a request that may have
// reached the socket is only ever re-sent when its message type is
// classified idempotent in wire.Requests, the one request table. The bug
// this kills is the worst kind the wire layer can grow — a duplicated
// insert after a connection break looks like success everywhere and
// corrupts data silently (DESIGN §12's "sent inserts are never blindly
// replayed").
//
// Two checks (that the table itself never classifies a mutating type
// idempotent is a unit test beside it, in internal/wire):
//
//  1. Every send primitive in internal/client (a function that both
//     writes and reads a wire message on a connection) must be driven by
//     the classification: it or some direct caller reads a row's
//     Idempotent field (directly or through one helper like
//     retryAfterSend). A primitive whose writes are all hard-coded
//     idempotent types (the pool's Hello health probe) is exempt. This is
//     what keeps a future "quick resend loop" from bypassing the policy.
//  2. Migration installs restart from offset 0: a MigrateInstall call
//     inside a retry loop must have its offset variable reset in the
//     body of that outer loop, never carried across attempts — a
//     replayed chunk corrupts the staging offset on the target.
var RetrySafe = &Analyzer{
	Name: "retrysafe",
	Doc: "requests that reached the socket are re-sent only when wire.Requests " +
		"says so; migration installs restart at offset 0 (DESIGN §12)",
	Run: runRetrySafe,
}

// classifiedField is the Request field the retry policy must consult.
const classifiedField = "Idempotent"

// idempotentRequests reads the request table out of internal/wire's
// source — the package-level []Request literal — and returns the constant
// names of the rows marked Idempotent: true, or nil without a table.
func idempotentRequests(wirePkg *Package) map[string]bool {
	for _, f := range wirePkg.Files {
		if f.IsTest {
			continue
		}
		for _, decl := range f.AST.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 1 {
					continue
				}
				cl, ok := vs.Values[0].(*ast.CompositeLit)
				if !ok || !isRequestSlice(cl.Type) {
					continue
				}
				idem := make(map[string]bool)
				for _, row := range cl.Elts {
					if name, yes := requestRow(row); yes {
						idem[name] = true
					}
				}
				return idem
			}
		}
	}
	return nil
}

// requestRow reads one row of the table literal: the constant its Type
// field names and whether its Idempotent field is the literal true.
func requestRow(row ast.Expr) (name string, idempotent bool) {
	rl, ok := row.(*ast.CompositeLit)
	if !ok {
		return "", false
	}
	for _, elt := range rl.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, _ := kv.Key.(*ast.Ident)
		val, _ := kv.Value.(*ast.Ident)
		if key == nil || val == nil {
			continue
		}
		switch key.Name {
		case "Type":
			name = val.Name
		case classifiedField:
			idempotent = val.Name == "true"
		}
	}
	return name, idempotent
}

// isRequestSlice matches the type expression []Request.
func isRequestSlice(t ast.Expr) bool {
	at, ok := t.(*ast.ArrayType)
	if !ok || at.Len != nil {
		return false
	}
	id, ok := at.Elt.(*ast.Ident)
	return ok && id.Name == "Request"
}

func runRetrySafe(p *Pass) error {
	mod := p.Prog.ModPath
	clientPkg := p.Prog.Package(mod + "/internal/client")
	wirePkg := p.Prog.Package(mod + "/internal/wire")
	if clientPkg != nil && wirePkg != nil {
		if idem := idempotentRequests(wirePkg); idem == nil {
			p.Reportf(wirePkg.Files[0].AST.Package,
				"internal/wire declares no request table (a package-level []Request literal); "+
					"the retry policy has no source of truth to consult")
		} else {
			checkSendPrimitives(p, clientPkg, idem)
		}
	}
	checkInstallOffsets(p)
	return nil
}

// checkSendPrimitives finds functions in internal/client that both write
// and read a wire message and verifies each is driven by the
// classification table.
func checkSendPrimitives(p *Pass, pkg *Package, idempotent map[string]bool) {
	// refsTable: function name (local key "Name" or "Recv.Name") →
	// whether its body reads a request row's Idempotent field.
	refsTable := make(map[string]bool)
	type primitive struct {
		fd        *ast.FuncDecl
		key       string
		writeArgs []ast.Expr // first args of its WriteMsg calls
	}
	var prims []primitive
	bodies := make(map[string]*ast.FuncDecl)
	for _, f := range pkg.Files {
		if f.IsTest {
			continue
		}
		for _, decl := range f.AST.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			_, recvType := receiverOf(fd)
			key := fd.Name.Name
			if recvType != "" {
				key = recvType + "." + fd.Name.Name
			}
			bodies[key] = fd
			var writes []ast.Expr
			var reads bool
			refs := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch e := n.(type) {
				case *ast.SelectorExpr:
					if e.Sel.Name == classifiedField {
						refs = true
					}
				case *ast.CallExpr:
					if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
						switch sel.Sel.Name {
						case "WriteMsg":
							if len(e.Args) > 0 {
								writes = append(writes, e.Args[0])
							}
						case "ReadMsg":
							reads = true
						}
					}
				}
				return true
			})
			refsTable[key] = refs
			if len(writes) > 0 && reads {
				prims = append(prims, primitive{fd: fd, key: key, writeArgs: writes})
			}
		}
	}

	// consultsViaHelper: callers may consult the table through one helper
	// level (do → retryAfterSend → table).
	consults := func(key string) bool {
		fd := bodies[key]
		if fd == nil {
			return false
		}
		if refsTable[key] {
			return true
		}
		found := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				if refsTable[fun.Name] {
					found = true
				}
			case *ast.SelectorExpr:
				if refsTable[fun.Sel.Name] {
					found = true
				}
			}
			return !found
		})
		return found
	}

	for _, prim := range prims {
		// Exempt: every write is a hard-coded constant the table marks
		// idempotent (the health probe's Hello).
		allHardcodedIdempotent := true
		for _, arg := range prim.writeArgs {
			sel, ok := arg.(*ast.SelectorExpr)
			if !ok || !strings.HasPrefix(sel.Sel.Name, "Msg") {
				allHardcodedIdempotent = false
				break
			}
			if !idempotent[sel.Sel.Name] {
				allHardcodedIdempotent = false
				break
			}
		}
		if allHardcodedIdempotent {
			continue
		}
		if consults(prim.key) {
			continue
		}
		// Some direct caller must consult the classification.
		driven := false
		for callerKey, fd := range bodies {
			if callerKey == prim.key || fd.Body == nil {
				continue
			}
			callsPrim := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || callsPrim {
					return !callsPrim
				}
				switch fun := call.Fun.(type) {
				case *ast.Ident:
					callsPrim = fun.Name == prim.fd.Name.Name
				case *ast.SelectorExpr:
					callsPrim = fun.Sel.Name == prim.fd.Name.Name
				}
				return !callsPrim
			})
			if callsPrim && consults(callerKey) {
				driven = true
				break
			}
		}
		if !driven {
			p.Reportf(prim.fd.Name.Pos(), "%s sends and receives wire messages but neither it nor any caller "+
				"consults the request table's %s classification; a retry through this path can replay a non-idempotent request",
				prim.fd.Name.Name, classifiedField)
		}
	}
}

// checkInstallOffsets enforces the offset-0 restart discipline at every
// MigrateInstall call site in the module: when the call sits inside a
// retry loop (an outer for around the chunk loop), the offset expression
// bound to the message must be reset inside that outer loop's body.
func checkInstallOffsets(p *Pass) {
	for _, pkg := range p.Prog.Pkgs {
		for _, f := range pkg.Files {
			if f.IsTest {
				continue
			}
			for _, decl := range f.AST.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkInstallOffsetsIn(p, fd)
			}
		}
	}
}

func checkInstallOffsetsIn(p *Pass, fd *ast.FuncDecl) {
	var loops []*ast.ForStmt
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch e := m.(type) {
			case *ast.ForStmt:
				if e == n {
					return true
				}
				loops = append(loops, e)
				walk(e.Body)
				loops = loops[:len(loops)-1]
				return false
			case *ast.CallExpr:
				sel, ok := e.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "MigrateInstall" {
					return true
				}
				off := installOffsetIdent(e)
				if off == "" {
					return true // offset isn't a simple variable; nothing to prove
				}
				// The call must be inside a chunk loop inside a retry
				// loop for a replay hazard to exist.
				if len(loops) < 2 {
					return true
				}
				retry := loops[len(loops)-2]
				if !loopResets(retry, off, loops[len(loops)-1]) {
					p.Reportf(e.Pos(), "MigrateInstall retried without restarting %s at 0: the retry loop must "+
						"re-ship the file from offset 0, never blind-resend a chunk (a replay corrupts the staging offset)", off)
				}
			}
			return true
		})
	}
	walk(fd.Body)
}

// installOffsetIdent extracts the identifier bound to the Offset field of
// the MigrateInstall composite-literal argument, or "".
func installOffsetIdent(call *ast.CallExpr) string {
	for _, arg := range call.Args {
		var cl *ast.CompositeLit
		switch a := arg.(type) {
		case *ast.CompositeLit:
			cl = a
		case *ast.UnaryExpr:
			if inner, ok := a.X.(*ast.CompositeLit); ok {
				cl = inner
			}
		}
		if cl == nil {
			continue
		}
		for _, elt := range cl.Elts {
			kv, ok := elt.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Offset" {
				if id, ok := kv.Value.(*ast.Ident); ok {
					return id.Name
				}
			}
		}
	}
	return ""
}

// loopResets reports whether the retry loop's body (outside the inner
// chunk loop) declares or zeroes the offset variable.
func loopResets(retry *ast.ForStmt, off string, inner *ast.ForStmt) bool {
	reset := false
	ast.Inspect(retry.Body, func(n ast.Node) bool {
		if n == inner {
			return false // resets inside the chunk loop don't restart the file
		}
		switch s := n.(type) {
		case *ast.DeclStmt:
			if gd, ok := s.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, name := range vs.Names {
							if name.Name == off && len(vs.Values) == 0 {
								reset = true
							}
						}
					}
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range s.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name != off || i >= len(s.Rhs) {
					continue
				}
				if lit, ok := s.Rhs[i].(*ast.BasicLit); ok && lit.Value == "0" {
					reset = true
				}
			}
		}
		return !reset
	})
	return reset
}
