// Package golife checks goroutine lifecycle discipline: every `go`
// launch must have a provable shutdown edge. A launched body whose loop
// can run forever with no exit — no loop condition, no return, no break
// out of the loop, no `for range ch` termination-on-close — outlives
// every Close and ctx cancellation in the program. Intentional
// process-lifetime daemons are declared with `//bertha:daemon <reason>`
// on the `go` statement.
//
// Diagnostic categories:
//
//	orphan         a `go` launch whose body loops forever with no exit
//	               edge and no //bertha:daemon declaration
//	waitgroup      sync.WaitGroup misuse around a launch: Add inside
//	               the launched goroutine (races with Wait), or a
//	               local WaitGroup whose Done has no prior Add
//	spawn-in-loop  an unbounded loop calls a function of another package
//	               known to launch a daemon goroutine per call, so the
//	               goroutine population grows without bound
//
// Two program-wide summaries drive the checks. The forever set holds
// every function whose body contains an exit-less unbounded loop, so
// `go pkg.F()` in another package is checked like a local function
// literal. The spawn summary records each function's spawn behavior
// (mcast.New, reliable.New, discovery.Serve, ...): how many goroutines
// a call launches and whether any is a daemon, which powers the
// spawn-in-loop check across package boundaries.
//
// Both see through helper wrappers via the program's call graph
// (internal/analysis/callgraph): a function that synchronously calls a
// forever-looping function is itself forever (so `go runLoop()` is
// caught even when runLoop merely delegates to the loop), and a
// constructor's spawn summary counts the goroutines launched by the
// helpers it calls, not just its own `go` statements.
package golife

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/bertha-net/bertha/internal/analysis"
	"github.com/bertha-net/bertha/internal/analysis/callgraph"
)

// Analyzer is the golife pass.
var Analyzer = &analysis.Analyzer{
	Name: "golife",
	Doc:  "require a provable shutdown edge for every launched goroutine and sane WaitGroup pairing",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	g := callgraph.Build(pass)
	// The forever set: every function with an exit-less unbounded loop
	// (callers may `go` them from anywhere) — and, via the call graph,
	// every wrapper that synchronously calls one: the wrapper never
	// returns either.
	forever := map[*types.Func]bool{}
	for _, n := range g.Nodes {
		if hasForeverLoop(n.Decl.Body) {
			forever[n.Fn] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.Nodes {
			if forever[n.Fn] {
				continue
			}
			for _, s := range n.Sites {
				if !s.Go && !s.Iface && forever[s.Callee] {
					forever[n.Fn] = true
					changed = true
					break
				}
			}
		}
	}

	w := &walker{pass: pass, ann: analysis.CollectAnnotations(pass.Fset, pass.Files), forever: forever}
	direct := map[*types.Func]spawnInfo{}
	for _, n := range g.Nodes {
		spawns, daemon := w.checkFunc(n.Decl)
		direct[n.Fn] = spawnInfo{count: spawns, daemon: daemon}
	}
	// Propagate spawn behavior bottom-up over the call graph so a
	// constructor that delegates launching to helpers still has an
	// honest summary. An SCC is treated as one unit (recursive helpers
	// share a combined summary).
	w.spawns = map[*types.Func]spawnInfo{}
	for _, scc := range g.SCCs() {
		var total spawnInfo
		for _, n := range scc {
			d := direct[n.Fn]
			total.count += d.count
			total.daemon = total.daemon || d.daemon
			for _, s := range n.Sites {
				if s.Go || s.Iface {
					continue
				}
				if t, ok := w.spawns[s.Callee]; ok {
					total.count += t.count
					total.daemon = total.daemon || t.daemon
				}
			}
		}
		if total.count > 1000 {
			total.count = 1000 // saturate: recursion multiplies sites
		}
		for _, n := range scc {
			w.spawns[n.Fn] = total
		}
	}
	for _, n := range g.Nodes {
		w.checkSpawnInLoop(n.Fn, n.Decl)
	}
	return nil
}

// spawnInfo is a function's spawn summary during propagation.
type spawnInfo struct {
	count  int
	daemon bool
}

type walker struct {
	pass *analysis.Pass
	ann  *analysis.Annotations
	// forever is the program's forever set; spawns its spawn summaries.
	forever map[*types.Func]bool
	spawns  map[*types.Func]spawnInfo
}

// checkFunc checks every `go` statement in one declared function and
// returns its direct spawn count and whether any launch is a daemon.
func (w *walker) checkFunc(fd *ast.FuncDecl) (int, bool) {
	spawns := 0
	daemon := false
	// WaitGroup bookkeeping: local wg variables with an Add before the
	// current position.
	added := map[*types.Var]bool{}
	var scan func(n ast.Node)
	scan = func(n ast.Node) {
		switch n := n.(type) {
		case nil:
			return
		case *ast.CallExpr:
			if v := w.wgMethodRecv(n, "Add"); v != nil {
				added[v] = true
			}
		case *ast.GoStmt:
			spawns++
			if w.checkGo(n, added) {
				daemon = true
			}
			// Still scan the launched body for nested launches'
			// bookkeeping (Adds inside don't count for outer Done
			// pairing, so don't record them in `added`).
			return
		}
		ast.Inspect(n, func(m ast.Node) bool {
			if m == n || m == nil {
				return m == n
			}
			scan(m)
			return false
		})
	}
	for _, s := range fd.Body.List {
		scan(s)
	}
	return spawns, daemon
}

// checkGo checks one `go` statement; it reports whether the launch is a
// daemon (loops forever with no exit), annotated or not.
func (w *walker) checkGo(g *ast.GoStmt, added map[*types.Var]bool) bool {
	daemon := false
	var body *ast.BlockStmt
	isLit := false
	switch fun := ast.Unparen(g.Call.Fun).(type) {
	case *ast.FuncLit:
		body = fun.Body
		isLit = true
	default:
		// The forever set already sees through wrapper chains.
		if fn := calleeFunc(w.pass.TypesInfo, g.Call); fn != nil && w.forever[fn] {
			daemon = true
		}
	}
	if body != nil && hasForeverLoop(body) {
		daemon = true
	}
	if daemon && !w.ann.DaemonAt(g.Pos()) {
		w.pass.Reportf(g.Pos(), "orphan",
			"goroutine launched here loops forever with no shutdown edge (no ctx/quit case, loop condition, or exit); add one or declare //bertha:daemon <reason>")
	}
	// WaitGroup pairing is only judged for literal launches: with
	// `go worker(wg)` the Add conventionally lives in the caller, and
	// worker's own body cannot see it.
	if isLit {
		w.checkWaitGroup(g, body, added)
	}
	return daemon
}

// checkWaitGroup flags Add inside the launched goroutine and Done on a
// local WaitGroup that was never Added before the launch.
func (w *walker) checkWaitGroup(g *ast.GoStmt, body *ast.BlockStmt, added map[*types.Var]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if v := w.wgMethodRecv(call, "Add"); v != nil {
			w.pass.Reportf(call.Pos(), "waitgroup",
				"WaitGroup.Add inside the launched goroutine races with Wait; call Add before the go statement")
		}
		if v := w.wgMethodRecv(call, "Done"); v != nil && isLocalVar(v) && !added[v] {
			w.pass.Reportf(call.Pos(), "waitgroup",
				"goroutine calls %s.Done but no %s.Add precedes the launch in this function", v.Name(), v.Name())
		}
		return true
	})
}

// wgMethodRecv returns the sync.WaitGroup variable when call is
// wg.<name>(...) on an identifier receiver, nil otherwise.
func (w *walker) wgMethodRecv(call *ast.CallExpr, name string) *types.Var {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return nil
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := w.pass.TypesInfo.Uses[id].(*types.Var)
	if !ok || !isWaitGroup(v.Type()) {
		return nil
	}
	return v
}

// isWaitGroup reports whether t is sync.WaitGroup (or a pointer to it).
func isWaitGroup(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "WaitGroup" && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}

// isLocalVar reports whether v is function-local (not a field or
// package-level variable), where the never-Added check is sound.
func isLocalVar(v *types.Var) bool {
	return !v.IsField() && v.Pkg() != nil && v.Parent() != v.Pkg().Scope()
}

// checkSpawnInLoop reports calls, inside an exit-less unbounded loop of
// caller, to functions of other packages that launch a daemon goroutine
// per call. Same-package daemons are already flagged at their go site.
func (w *walker) checkSpawnInLoop(caller *types.Func, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		loop, ok := n.(*ast.ForStmt)
		if !ok || loop.Cond != nil || hasLoopExit(loop.Body) {
			return true
		}
		ast.Inspect(loop.Body, func(m ast.Node) bool {
			if _, ok := m.(*ast.FuncLit); ok {
				return false
			}
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(w.pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg() == caller.Pkg() || !w.spawns[fn].daemon {
				return true
			}
			w.pass.Reportf(call.Pos(), "spawn-in-loop",
				"%s.%s launches a daemon goroutine per call and runs inside an unbounded loop; the goroutine population grows without bound",
				fn.Pkg().Name(), fn.Name())
			return true
		})
		return true
	})
}

// hasForeverLoop reports whether body contains an unbounded for-loop
// with no exit edge, outside nested function literals.
func hasForeverLoop(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt:
			if n.Cond == nil && !hasLoopExit(n.Body) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// hasLoopExit reports whether a loop body can leave the loop: an
// unlabeled break at loop level, any labeled break or goto, or a
// return. Unlabeled breaks inside nested for/range/switch/select
// target those statements, not our loop.
func hasLoopExit(body *ast.BlockStmt) bool {
	found := false
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		if n == nil || found {
			return
		}
		switch n := n.(type) {
		case *ast.ReturnStmt:
			found = true
			return
		case *ast.BranchStmt:
			switch n.Tok {
			case token.GOTO:
				found = true
			case token.BREAK:
				found = true // unlabeled at this level targets our loop
			case token.CONTINUE:
			}
			return
		case *ast.ForStmt, *ast.RangeStmt:
			// A nested loop: its unlabeled breaks are its own, but a
			// return or labeled break inside still exits ours.
			ast.Inspect(n, func(m ast.Node) bool {
				switch m := m.(type) {
				case *ast.ReturnStmt:
					found = true
				case *ast.BranchStmt:
					if m.Label != nil && (m.Tok == token.BREAK || m.Tok == token.GOTO) {
						found = true
					}
				case *ast.FuncLit:
					return false
				}
				return !found
			})
			return
		case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			// Unlabeled break targets the switch/select; returns and
			// labeled breaks inside still exit the loop.
			ast.Inspect(n, func(m ast.Node) bool {
				switch m := m.(type) {
				case *ast.ReturnStmt:
					found = true
				case *ast.BranchStmt:
					if m.Label != nil && (m.Tok == token.BREAK || m.Tok == token.GOTO) {
						found = true
					}
					if m.Tok == token.GOTO {
						found = true
					}
				case *ast.FuncLit:
					return false
				}
				return !found
			})
			return
		case *ast.FuncLit:
			return
		}
		ast.Inspect(n, func(m ast.Node) bool {
			if m == n || m == nil {
				return m == n
			}
			walk(m)
			return false
		})
	}
	for _, s := range body.List {
		walk(s)
	}
	return found
}

// calleeFunc resolves the called function when statically known.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}
