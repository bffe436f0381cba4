package ltlint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder builds the whole-program lock-acquisition graph and enforces
// two invariants the distributed layer depends on:
//
//  1. No ordering cycles. Every acquisition of lock class B while class A
//     is held adds the edge A→B; two functions that disagree about the
//     order (A→B somewhere, B→A elsewhere) can deadlock the moment they
//     run concurrently, and with RWMutexes even read/read cycles wedge
//     once a writer queues between them.
//
//  2. No durable-file I/O while a routing or table mutex is held. The PR 5
//     280x foreground-insert p99 regression was exactly this shape: a
//     descriptor fsync inside the table lock stalls every insert behind
//     disk latency. The rule flags any function that directly performs
//     Create/Rename/SyncDir, or calls one of internal/vfs's crash-safe
//     writers (durableIO), and is reachable (over the call graph, with
//     held-lock sets propagated through call chains) while a mutex field
//     named `mu` or `pmu` is held. Deliberate foreground commit points
//     carry an //ltlint:ignore lockorder with the reason in the open.
//
// Lock classes are (package, type, field) triples read from the receiver
// expression's type, so core.Table.mu and router.Router.pmu are distinct
// classes while every *instance* of a Table shares one. Calls are bound to
// their static callee, across packages and through any receiver;
// interface dispatch and function values bind nothing, so propagation
// never invents a caller.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc: "lock-acquisition cycles and durable-file I/O under a table/placement " +
		"mutex deadlock or stall the data path (the PR 5 280x p99 bug class)",
	Run: runLockOrder,
}

// lockAcq is one lock acquisition with the classes already held there.
type lockAcq struct {
	class string
	held  []string
	pos   token.Pos
}

// lockCall is one statically bound call with the classes held at the
// call site.
type lockCall struct {
	callee *types.Func
	held   []string
}

// lockSummary is the per-function fact sheet the propagation pass works on.
type lockSummary struct {
	key      string // funcKey, for stable order and messages
	decl     *ast.FuncDecl
	acquires []lockAcq
	calls    []lockCall
	ioHeld   [][]string // held-class sets at direct Create/Rename/SyncDir calls
	directIO bool
}

func runLockOrder(p *Pass) error {
	// One summary per function declaration; funcs lists them in key order
	// so that propagation, and with it the exemplar caller each message
	// names, is deterministic.
	sums := make(map[*types.Func]*lockSummary)
	var funcs []*types.Func
	for _, pkg := range p.Prog.Pkgs {
		if pkg.PkgPath == p.Prog.ModPath+"/internal/vfs" {
			continue // the I/O boundary: see durableIO
		}
		for _, f := range pkg.Files {
			if f.IsTest {
				continue
			}
			for _, decl := range f.AST.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					fn := p.Prog.Info.Defs[fd.Name].(*types.Func)
					sums[fn] = summarizeLocks(p.Prog, fn, fd)
					funcs = append(funcs, fn)
				}
			}
		}
	}
	sort.Slice(funcs, func(i, j int) bool { return sums[funcs[i]].key < sums[funcs[j]].key })

	// Propagate held-at-entry sets through call chains to a fixed point:
	// if f calls g while holding A, then everything g does happens with A
	// held too. entrySrc remembers one caller per inherited class for the
	// diagnostic message.
	entry := make(map[*types.Func]map[string]bool)
	entrySrc := make(map[*types.Func]map[string]string)
	work := append([]*types.Func(nil), funcs...)
	for len(work) > 0 {
		fn := work[0]
		work = work[1:]
		for _, c := range sums[fn].calls {
			if sums[c.callee] == nil {
				continue // declared outside the program: propagate nothing
			}
			grew := false
			for _, h := range unionHeld(entry[fn], c.held) {
				if entry[c.callee] == nil {
					entry[c.callee] = make(map[string]bool)
					entrySrc[c.callee] = make(map[string]string)
				}
				if !entry[c.callee][h] {
					entry[c.callee][h] = true
					entrySrc[c.callee][h] = sums[fn].key
					grew = true
				}
			}
			if grew {
				work = append(work, c.callee)
			}
		}
	}

	// Rule 1: collect the class-order edges and report every edge that
	// sits on a cycle, once per ordered pair, at an exemplar acquisition.
	type edge struct{ from, to string }
	edges := make(map[edge]token.Pos) // first acquisition making the edge
	adj := make(map[string][]string)
	for _, fn := range funcs {
		for _, acq := range sums[fn].acquires {
			for _, h := range unionHeld(entry[fn], acq.held) {
				if h == acq.class {
					// Same class on two instances (lock coupling) is a
					// legitimate pattern the resolver cannot tell from
					// self-deadlock; skip rather than guess.
					continue
				}
				e := edge{from: h, to: acq.class}
				if _, dup := edges[e]; !dup {
					edges[e] = acq.pos
					adj[e.from] = append(adj[e.from], e.to)
				}
			}
		}
	}
	for e, pos := range edges {
		if reaches(adj, e.to, e.from) {
			p.Reportf(pos, "lock order cycle: %s acquired while %s is held, but elsewhere %s is acquired while %s is held — pick one order",
				e.to, e.from, e.from, e.to)
		}
	}

	// Rule 2: durable I/O while a data-path mutex (field `mu` or `pmu`)
	// is held, directly or via callers.
	for _, fn := range funcs {
		sum := sums[fn]
		if !sum.directIO {
			continue
		}
		bad := make(map[string]string) // class → how it got here
		for _, held := range sum.ioHeld {
			for _, h := range held {
				if dataPathMutex(h) {
					bad[h] = "held locally"
				}
			}
		}
		for h := range entry[fn] {
			if dataPathMutex(h) {
				if _, have := bad[h]; !have {
					bad[h] = "held by caller " + entrySrc[fn][h]
				}
			}
		}
		for _, h := range sortedStrMapKeys(bad) {
			p.Reportf(sum.decl.Name.Pos(),
				"%s performs durable file I/O (Create/Rename/SyncDir) while %s is %s; an fsync under the data-path lock stalls every request behind disk latency — persist outside it (DESIGN §11)",
				sum.decl.Name.Name, h, bad[h])
		}
	}
	return nil
}

// dataPathMutex reports whether a lock class is a per-request data-path
// mutex: the table lock (`mu`) or the router's placement lock (`pmu`).
// Commit-side locks (descMu, maintMu, insertMu, ...) exist precisely to
// be held across I/O.
func dataPathMutex(class string) bool {
	return strings.HasSuffix(class, ".mu") || strings.HasSuffix(class, ".pmu")
}

func unionHeld(entry map[string]bool, local []string) []string {
	out := make([]string, 0, len(entry)+len(local))
	seen := make(map[string]bool, len(entry)+len(local))
	for h := range entry {
		if !seen[h] {
			seen[h] = true
			out = append(out, h)
		}
	}
	for _, h := range local {
		if !seen[h] {
			seen[h] = true
			out = append(out, h)
		}
	}
	sort.Strings(out)
	return out
}

func reaches(adj map[string][]string, from, to string) bool {
	seen := map[string]bool{from: true}
	stack := []string{from}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == to {
			return true
		}
		for _, m := range adj[n] {
			if !seen[m] {
				seen[m] = true
				stack = append(stack, m)
			}
		}
	}
	return false
}

func sortedStrMapKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// summarizeLocks walks fd's body with the shared held-lock walker,
// recording acquisitions, statically bound calls and direct durable-I/O
// sites with the classes held at each.
func summarizeLocks(prog *Program, fn *types.Func, fd *ast.FuncDecl) *lockSummary {
	sum := &lockSummary{key: funcKey(fn), decl: fd}
	w := &lockWalk{
		prog: prog,
		acquire: func(class string, pos token.Pos, held heldLocks) {
			if class != "" {
				sum.acquires = append(sum.acquires, lockAcq{class: class, held: held.classes(), pos: pos})
			}
		},
		visit: func(n ast.Node, held heldLocks) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			if prog.durableIO(call) {
				sum.directIO = true
				sum.ioHeld = append(sum.ioHeld, held.classes())
			}
			if callee := prog.callee(call); callee != nil {
				sum.calls = append(sum.calls, lockCall{callee: callee, held: held.classes()})
			}
		},
	}
	w.block(fd.Body.List, nil)
	return sum
}

// durableIO reports whether call performs durable file I/O: a Create,
// Rename or SyncDir method of a filesystem, or a call to one of
// internal/vfs's crash-safe writers. Lockorder does not walk internal/vfs,
// so a finding lands at the caller that holds the lock.
func (prog *Program) durableIO(call *ast.CallExpr) bool {
	fn := prog.callee(call)
	if fn == nil {
		return false
	}
	inVFS := fn.Pkg() != nil && fn.Pkg().Path() == prog.ModPath+"/internal/vfs"
	switch fn.Name() {
	case "Create", "Rename", "SyncDir":
		return inVFS || fn.Type().(*types.Signature).Recv() != nil
	case "CreateAtomic", "WriteFileAtomic", "CopyFileAtomic", "Commit":
		return inVFS
	}
	return false
}
