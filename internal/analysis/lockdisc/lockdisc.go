// Package lockdisc checks lock discipline around the blocking data
// plane: no sync.Mutex/RWMutex may be held across a conn Send/Recv/
// SendBuf/RecvBuf call or a blocking channel send, no mutex may be
// acquired twice on one path, and paired mutexes must be acquired in a
// consistent order everywhere in the package.
//
// Diagnostic categories:
//
//	across-send  a mutex is held across a blocking conn call
//	chan-send    a mutex is held across a channel send (use the
//	             unlock-send-relock pattern or a select with default)
//	order        two mutexes are acquired in both (A,B) and (B,A) order
//	             somewhere in the package
//	double-lock  a mutex is acquired while already held on the same path
//
//	deadlock     a lock-order cycle closes through calls — possibly
//	             across functions and packages (see interproc.go)
//
// The per-function analysis is path-insensitive at joins (a mutex
// counts as held after a branch only if every arm holds it). `defer
// mu.Unlock()` keeps the mutex held for the rest of the function, which
// is the point: the data-plane calls it covers execute under the lock.
// On top of it, interproc.go chains held-lock sets through calls over
// the program's call graph into one lock-order graph and searches it
// for cycles once.
package lockdisc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"github.com/bertha-net/bertha/internal/analysis"
)

// Analyzer is the lockdisc pass.
var Analyzer = &analysis.Analyzer{
	Name: "lockdisc",
	Doc:  "flag mutexes held across blocking conn calls, inconsistent lock ordering, and cross-package lock-order cycles",
	Run:  run,
}

// held maps a lock's source expression (e.g. "c.mu") to where it was
// acquired on the current path.
type held map[string]token.Pos

func (h held) clone() held {
	c := make(held, len(h))
	for k, v := range h {
		c[k] = v
	}
	return c
}

// intersect keeps only locks held on both paths.
func (h held) intersect(o held) held {
	c := held{}
	for k, v := range h {
		if _, ok := o[k]; ok {
			c[k] = v
		}
	}
	return c
}

func (h held) keys() []string {
	ks := make([]string, 0, len(h))
	for k := range h {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// orderEdge records that `second` was acquired while `first` was held.
type orderEdge struct{ first, second string }

func run(pass *analysis.Pass) error {
	w := &walker{pass: pass}
	for _, pkg := range pass.Pkgs {
		w.pkg = pkg.Types
		w.orders = map[orderEdge]token.Pos{}
		w.globalOf = map[string]string{}
		w.moduleOf = map[string]string{}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
				w.cur = &funcRec{fn: fn, acquires: map[string]token.Pos{}}
				w.recs = append(w.recs, w.cur)
				w.stmtList(fd.Body.List, held{})
			}
		}
		w.cur = nil
		w.reportOrder()
	}
	// Interprocedural pass: transitive acquire sets and one cycle
	// search over the program's lock-order graph.
	w.deadlocks()
	return nil
}

// reportOrder reports the package's inconsistent acquisition orders:
// both (A,B) and (B,A) observed.
func (w *walker) reportOrder() {
	reported := map[orderEdge]bool{}
	var edges []orderEdge
	for e := range w.orders {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].first != edges[j].first {
			return edges[i].first < edges[j].first
		}
		return edges[i].second < edges[j].second
	})
	for _, e := range edges {
		inv := orderEdge{e.second, e.first}
		if invPos, ok := w.orders[inv]; ok && !reported[e] && !reported[inv] {
			reported[e], reported[inv] = true, true
			w.pass.Reportf(w.orders[e], "order",
				"locks %s and %s are acquired in both orders (inverse order at %s); pick one order to avoid deadlock",
				e.first, e.second, w.pass.Fset.Position(invPos))
		}
	}
}

type walker struct {
	pass *analysis.Pass
	// pkg is the package being walked; orders, globalOf and moduleOf
	// are per package.
	pkg      *types.Package
	orders   map[orderEdge]token.Pos
	globalOf map[string]string // local lock key -> global identity
	moduleOf map[string]string // local lock key -> program-wide lock ID
	// cur is the record of the function (or literal) being walked;
	// recs accumulates every record for the interprocedural pass.
	cur  *funcRec
	recs []*funcRec
	// directEdges are the inline acquisition-order edges, keyed by
	// program-wide lock IDs.
	directEdges []lockEdge
	// deferring marks walking of a deferred call: its calls record an
	// empty held set (the locks held at the defer statement are not
	// necessarily held when the deferred call finally runs).
	deferring bool
}

// nested walks a function literal or deferred call under its own
// record, so its acquisitions never count toward the enclosing
// function's synchronous transitive set.
func (w *walker) nested(fn func()) {
	prev := w.cur
	w.cur = &funcRec{acquires: map[string]token.Pos{}}
	w.recs = append(w.recs, w.cur)
	fn()
	w.cur = prev
}

// curName names the current function for witness text.
func (w *walker) curName() string {
	if w.cur != nil && w.cur.fn != nil {
		return w.cur.fn.Name()
	}
	return "func literal"
}

func (w *walker) stmtList(list []ast.Stmt, h held) held {
	for _, s := range list {
		h = w.stmt(s, h)
	}
	return h
}

// stmt threads the held-lock set through one statement.
func (w *walker) stmt(s ast.Stmt, h held) held {
	switch s := s.(type) {
	case nil:
		return h
	case *ast.ExprStmt:
		return w.expr(s.X, h)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			h = w.expr(r, h)
		}
		return h
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			h = w.expr(r, h)
		}
		return h
	case *ast.BlockStmt:
		return w.stmtList(s.List, h)
	case *ast.IfStmt:
		if s.Init != nil {
			h = w.stmt(s.Init, h)
		}
		h = w.expr(s.Cond, h)
		hThen := w.stmtList(s.Body.List, h.clone())
		hElse := h.clone()
		if s.Else != nil {
			hElse = w.stmt(s.Else, hElse)
		}
		return hThen.intersect(hElse)
	case *ast.ForStmt:
		if s.Init != nil {
			h = w.stmt(s.Init, h)
		}
		h = w.expr(s.Cond, h)
		hBody := w.stmtList(s.Body.List, h.clone())
		if s.Post != nil {
			w.stmt(s.Post, hBody)
		}
		return h
	case *ast.RangeStmt:
		h = w.expr(s.X, h)
		w.stmtList(s.Body.List, h.clone())
		return h
	case *ast.SwitchStmt:
		if s.Init != nil {
			h = w.stmt(s.Init, h)
		}
		h = w.expr(s.Tag, h)
		return w.clauses(s.Body, h)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			h = w.stmt(s.Init, h)
		}
		h = w.stmt(s.Assign, h)
		return w.clauses(s.Body, h)
	case *ast.SelectStmt:
		return w.clauses(s.Body, h)
	case *ast.DeferStmt:
		// defer mu.Unlock() does NOT release for our purposes: the lock
		// stays held for the remainder of the function body.
		if key, op, ok := w.lockOp(s.Call); ok && (op == "Unlock" || op == "RUnlock") {
			_ = key
			return h
		}
		w.nested(func() {
			w.deferring = true
			w.expr(s.Call, h)
			w.deferring = false
		})
		return h
	case *ast.GoStmt:
		// The goroutine body runs later, without our locks.
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.nested(func() { w.stmtList(fl.Body.List, held{}) })
		}
		for _, a := range s.Call.Args {
			h = w.expr(a, h)
		}
		return h
	case *ast.SendStmt:
		h = w.expr(s.Chan, h)
		h = w.expr(s.Value, h)
		if len(h) > 0 {
			w.pass.Reportf(s.Arrow, "chan-send",
				"blocking channel send while holding %v; unlock first (see the unlock-send-relock pattern) or use a select with default",
				h.keys())
		}
		return h
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, h)
	case *ast.IncDecStmt:
		return w.expr(s.X, h)
	}
	return h
}

// clauses analyzes switch/select bodies; the result is the intersection
// of the per-clause lock sets.
func (w *walker) clauses(body *ast.BlockStmt, h held) held {
	var outs []held
	for _, cs := range body.List {
		hc := h.clone()
		switch cs := cs.(type) {
		case *ast.CaseClause:
			for _, x := range cs.List {
				hc = w.expr(x, hc)
			}
			hc = w.stmtList(cs.Body, hc)
		case *ast.CommClause:
			if cs.Comm != nil {
				// A blocking comm op under a lock is only safe in a
				// select with default; the select itself may block.
				hc = w.commStmt(cs, hc, hasDefault(body))
			}
			hc = w.stmtList(cs.Body, hc)
		}
		outs = append(outs, hc)
	}
	if len(outs) == 0 {
		return h
	}
	out := outs[0]
	for _, o := range outs[1:] {
		out = out.intersect(o)
	}
	return out
}

// commStmt handles a select communication clause: a send case in a
// select without default is still a blocking send under the lock.
func (w *walker) commStmt(cs *ast.CommClause, h held, nonBlocking bool) held {
	if snd, ok := cs.Comm.(*ast.SendStmt); ok {
		h = w.expr(snd.Chan, h)
		h = w.expr(snd.Value, h)
		if len(h) > 0 && !nonBlocking {
			w.pass.Reportf(snd.Arrow, "chan-send",
				"blocking channel send (select without default) while holding %v", h.keys())
		}
		return h
	}
	return w.stmt(cs.Comm, h)
}

func hasDefault(body *ast.BlockStmt) bool {
	for _, cs := range body.List {
		if cc, ok := cs.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// expr scans an expression for lock operations and blocking conn calls.
func (w *walker) expr(x ast.Expr, h held) held {
	if x == nil {
		return h
	}
	ast.Inspect(x, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// Runs later (or inline, but with its own lock tracking).
			w.nested(func() { w.stmtList(n.Body.List, held{}) })
			return false
		case *ast.CallExpr:
			if lk, op, ok := w.lockOp(n); ok {
				switch op {
				case "Lock", "RLock":
					if prev, already := h[lk.local]; already {
						w.pass.Reportf(n.Pos(), "double-lock",
							"%s is acquired while already held (first acquired at %s): self-deadlock",
							lk.local, w.pass.Fset.Position(prev))
					}
					for other, otherGlobal := range w.globals(h) {
						if other != lk.local && otherGlobal != lk.global {
							edge := orderEdge{otherGlobal, lk.global}
							if _, ok := w.orders[edge]; !ok {
								w.orders[edge] = n.Pos()
							}
						}
					}
					// Lock-order graph bookkeeping: the acquisition
					// itself (seed of the transitive set) and direct
					// order edges keyed by program-wide identity.
					if w.cur != nil {
						if _, ok := w.cur.acquires[lk.module]; !ok {
							w.cur.acquires[lk.module] = n.Pos()
						}
						for otherLocal := range h {
							if om := w.moduleOf[otherLocal]; om != "" && om != lk.module && otherLocal != lk.local {
								w.directEdges = append(w.directEdges, lockEdge{
									first: om, second: lk.module, pos: n.Pos(), direct: w.pkg,
									why: fmt.Sprintf("%s acquires %s then %s", w.curName(), om, lk.module),
								})
							}
						}
					}
					h[lk.local] = n.Pos()
					w.globalOf[lk.local] = lk.global
					w.moduleOf[lk.local] = lk.module
				case "Unlock", "RUnlock":
					delete(h, lk.local)
				}
				return true
			}
			if name, ok := analysis.ConnCallName(w.pass.TypesInfo, n); ok && len(h) > 0 {
				w.pass.Reportf(n.Pos(), "across-send",
					"%s called while holding %v; blocking conn calls must not run under a mutex",
					name, h.keys())
			}
			// Record the call for the interprocedural pass: the callee
			// may acquire locks of its own, which makes every lock held
			// here order-before them.
			if w.cur != nil {
				if callee, iface := calleeOf(w.pass.TypesInfo, n); callee != nil {
					var heldIDs []string
					if !w.deferring {
						for local := range h {
							if m := w.moduleOf[local]; m != "" {
								heldIDs = append(heldIDs, m)
							}
						}
						sort.Strings(heldIDs)
					}
					w.cur.calls = append(w.cur.calls, callRec{
						callee: callee, iface: iface, held: heldIDs, pos: n.Pos(),
					})
				}
			}
		}
		return true
	})
	return h
}

// lockKey identifies a lock three ways: local is the source expression
// (path-sensitive within one function), global is a package-wide
// identity (Type.field for struct mutexes) used for order checking so
// c.sendMu in one method and a.sendMu in another compare equal, and
// module is the package-qualified form of global used by the
// program-wide lock-order graph so the same field compares equal across
// packages.
type lockKey struct {
	local  string
	global string
	module string
}

// globals annotates each held local key with its global identity.
func (w *walker) globals(h held) map[string]string {
	out := make(map[string]string, len(h))
	for local := range h {
		g := local
		if gk, ok := w.globalOf[local]; ok {
			g = gk
		}
		out[local] = g
	}
	return out
}

// lockOp recognizes calls to sync.(RW)Mutex Lock/RLock/Unlock/RUnlock
// (including promoted methods of embedded mutexes).
func (w *walker) lockOp(call *ast.CallExpr) (lockKey, string, bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return lockKey{}, "", false
	}
	name := sel.Sel.Name
	switch name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return lockKey{}, "", false
	}
	fn, isFn := w.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockKey{}, "", false
	}
	lk := lockKey{local: types.ExprString(sel.X), global: types.ExprString(sel.X)}
	lk.module = w.pkg.Path() + "." + lk.global
	// For x.field mutexes, key the order graph by the owner's type name
	// so the same struct field matches across methods with different
	// receiver names (and, module-qualified, across packages).
	if owner, ok := sel.X.(*ast.SelectorExpr); ok {
		if tv, ok := w.pass.TypesInfo.Types[owner.X]; ok {
			t := tv.Type
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				lk.global = named.Obj().Name() + "." + owner.Sel.Name
				if named.Obj().Pkg() != nil {
					lk.module = named.Obj().Pkg().Path() + "." + lk.global
				}
			}
		}
	}
	return lk, name, true
}

// calleeOf resolves a call expression to its static or interface-method
// callee, mirroring the callgraph classifier.
func calleeOf(info *types.Info, call *ast.CallExpr) (*types.Func, bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn, false
		}
	case *ast.SelectorExpr:
		fn, ok := info.Uses[fun.Sel].(*types.Func)
		if !ok {
			return nil, false
		}
		if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			if _, isIface := sel.Recv().Underlying().(*types.Interface); isIface {
				return fn, true
			}
		}
		return fn, false
	}
	return nil, false
}
