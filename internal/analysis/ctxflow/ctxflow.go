// Package ctxflow checks that cancellation actually flows: a function
// that receives a context.Context and then blocks must consume that
// context — by passing it down, selecting on Done(), or reading its
// deadline — or the goroutine ignores shutdown exactly when it matters.
//
// Diagnostic categories:
//
//	dropped-ctx  a function receives a ctx it never consumes, yet its
//	             body (or a callee known to block) performs a blocking
//	             operation the ctx should bound
//	background   context.Background()/TODO() passed directly as a call
//	             argument in non-main code, detaching the call from the
//	             caller's cancellation (wrapping it in context.With* to
//	             mint a lifecycle root is fine)
//	timer-leak   a time.NewTimer/NewTicker whose Stop is never called
//	             and which never escapes the function
//
// Blocking operations are unguarded channel sends/receives (a select
// with a default or a ctx.Done() case is not blocking-without-ctx),
// time.Sleep, and calls to functions known to block without consuming a
// context. "Known to block" is a fixpoint over the whole program's
// calls, so the check crosses package boundaries transitively.
//
// Detection is reachability-aware: each function body is lowered to a
// control-flow graph (internal/analysis/cfg) and blocking operations or
// timer creations in unreachable blocks — code after a return or panic,
// after an exit-less `for {}`, or after a `select {}` — are ignored.
// The pre-CFG walker counted those dead sites and flagged functions
// that can never actually block.
package ctxflow

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/bertha-net/bertha/internal/analysis"
	"github.com/bertha-net/bertha/internal/analysis/cfg"
)

// Analyzer is the ctxflow pass.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc:  "check that context cancellation flows through blocking calls (dropped ctx, detached Background, leaked timers)",
	Run:  run,
}

// funcInfo is what the pass learns about one declared function.
type funcInfo struct {
	decl *ast.FuncDecl
	// ctxVar is the context.Context parameter, nil if none (or blank).
	ctxVar *types.Var
	// consumesCtx reports whether ctxVar appears anywhere in the body.
	consumesCtx bool
	// block names the first directly-blocking operation in the body, ""
	// if none.
	block string
	// calls lists the reachable static callees invoked outside nested
	// function literals, for the transitive fixpoint.
	calls []*types.Func
	// dead holds the source spans of CFG-unreachable code; blocking
	// operations inside them never execute and are not counted.
	dead []cfg.Span
}

// reachable reports whether pos lies outside every dead span.
func (fi *funcInfo) reachable(pos token.Pos) bool {
	for _, sp := range fi.dead {
		if sp.Contains(pos) {
			return false
		}
	}
	return true
}

func run(pass *analysis.Pass) error {
	infos := map[*types.Func]*funcInfo{}
	var order []*types.Func
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			infos[fn] = analyzeFunc(pass, fd)
			order = append(order, fn)
		}
	}

	// Propagate "blocks without ctx" through the program's calls to a
	// fixpoint: a function that calls a blocker (and has no ctx of its
	// own to consume) is itself a blocker.
	blocks := map[*types.Func]string{}
	for fn, fi := range infos {
		if fi.block != "" && !fi.consumesCtx {
			blocks[fn] = fi.block
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range order {
			fi := infos[fn]
			if blocks[fn] != "" || fi.consumesCtx {
				continue
			}
			if op := blockingCall(fn, fi, blocks); op != "" {
				blocks[fn] = op
				changed = true
			}
		}
	}

	// dropped-ctx: a ctx parameter that is never consumed while the
	// function blocks — directly or via a callee.
	for _, fn := range order {
		fi := infos[fn]
		if fi.ctxVar == nil || fi.consumesCtx {
			continue
		}
		op := fi.block
		if op == "" {
			op = blockingCall(fn, fi, blocks)
		}
		if op != "" {
			pass.Reportf(fi.decl.Name.Pos(), "dropped-ctx",
				"%s receives ctx %q but never consumes it, yet blocks via %s; pass the ctx down, select on its Done, or drop the parameter",
				fn.Name(), fi.ctxVar.Name(), op)
		}
	}

	// background: Background/TODO handed straight to a callee.
	for _, pkg := range pass.Pkgs {
		if pkg.Types.Name() == "main" {
			continue
		}
		for _, f := range pkg.Files {
			checkBackground(pass, f)
		}
	}
	return nil
}

// blockingCall names fn's first call to a known blocker, "" if none.
func blockingCall(fn *types.Func, fi *funcInfo, blocks map[*types.Func]string) string {
	for _, callee := range fi.calls {
		if op := blocks[callee]; op != "" {
			name := callee.Name()
			if callee.Pkg() != fn.Pkg() {
				name = callee.Pkg().Name() + "." + name
			}
			return "call to " + name + " (" + op + ")"
		}
	}
	return ""
}

// analyzeFunc computes one function's ctx parameter, ctx consumption,
// first blocking operation, and callees. Timer leaks are reported as a
// side effect.
func analyzeFunc(pass *analysis.Pass, fd *ast.FuncDecl) *funcInfo {
	fi := &funcInfo{decl: fd, dead: cfg.New(fd.Body).UnreachableSpans()}
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				v, ok := pass.TypesInfo.Defs[name].(*types.Var)
				if ok && analysis.IsContext(v.Type()) && name.Name != "_" {
					fi.ctxVar = v
				}
			}
		}
	}
	checkTimerLeaks(pass, fd.Body, fi)
	walkBody(pass, fd.Body, fi, false)
	return fi
}

// walkBody scans stmts for ctx consumption, blocking operations, and
// calls. inGuardedSelect marks nodes under a select arm
// whose select has a default or a ctx.Done() case.
func walkBody(pass *analysis.Pass, body *ast.BlockStmt, fi *funcInfo, inGuardedSelect bool) {
	var walk func(n ast.Node, guarded bool)
	walk = func(n ast.Node, guarded bool) {
		switch n := n.(type) {
		case nil:
			return
		case *ast.FuncLit:
			// A nested literal is its own execution context for
			// blocking purposes, but uses of the outer ctx inside it
			// still count as consumption (e.g. go func(){ <-ctx.Done() }).
			if fi.ctxVar != nil && usesVar(pass.TypesInfo, n.Body, fi.ctxVar) {
				fi.consumesCtx = true
			}
			return
		case *ast.Ident:
			if fi.ctxVar != nil && pass.TypesInfo.Uses[n] == fi.ctxVar {
				fi.consumesCtx = true
			}
			return
		case *ast.SelectStmt:
			g := guarded || selectGuarded(pass, n)
			for _, cl := range n.Body.List {
				cc := cl.(*ast.CommClause)
				if cc.Comm != nil {
					walk(cc.Comm, g)
				}
				for _, s := range cc.Body {
					walk(s, g)
				}
			}
			return
		case *ast.SendStmt:
			if !guarded {
				fi.noteBlock(n.Pos(), "channel send")
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !guarded {
				fi.noteBlock(n.Pos(), "channel receive")
			}
		case *ast.RangeStmt:
			if tv, ok := pass.TypesInfo.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan && !guarded {
					fi.noteBlock(n.Pos(), "range over channel")
				}
			}
		case *ast.CallExpr:
			if fn := calleeFunc(pass.TypesInfo, n); fn != nil {
				if isPkgFunc(fn, "time", "Sleep") && !guarded {
					fi.noteBlock(n.Pos(), "time.Sleep")
				}
				if fi.reachable(n.Pos()) {
					fi.calls = append(fi.calls, fn)
				}
			}
		}
		// Generic recursion over children.
		ast.Inspect(n, func(m ast.Node) bool {
			if m == n || m == nil {
				return m == n
			}
			walk(m, guarded)
			return false
		})
	}
	for _, s := range body.List {
		walk(s, inGuardedSelect)
	}
}

// noteBlock records the first blocking operation. Sites in
// CFG-unreachable code never execute and are ignored.
func (fi *funcInfo) noteBlock(pos token.Pos, op string) {
	if fi.block == "" && fi.reachable(pos) {
		fi.block = op
	}
}

// selectGuarded reports whether a select is non-blocking (default arm)
// or shutdown-aware (a case receiving from a Done() channel).
func selectGuarded(pass *analysis.Pass, sel *ast.SelectStmt) bool {
	for _, cl := range sel.Body.List {
		cc := cl.(*ast.CommClause)
		if cc.Comm == nil {
			return true // default arm: non-blocking
		}
		var recv ast.Expr
		switch comm := cc.Comm.(type) {
		case *ast.ExprStmt:
			recv = comm.X
		case *ast.AssignStmt:
			if len(comm.Rhs) == 1 {
				recv = comm.Rhs[0]
			}
		}
		ue, ok := ast.Unparen(recv).(*ast.UnaryExpr)
		if !ok || ue.Op != token.ARROW {
			continue
		}
		if call, ok := ast.Unparen(ue.X).(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
				return true // case <-something.Done():
			}
		}
	}
	return false
}

// usesVar reports whether v is referenced anywhere under n.
func usesVar(info *types.Info, n ast.Node, v *types.Var) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && info.Uses[id] == v {
			found = true
		}
		return !found
	})
	return found
}

// checkBackground reports Background/TODO contexts passed directly as
// call arguments: the callee runs detached from every cancellation the
// caller participates in. Minting a lifecycle root via context.With* is
// the accepted pattern and is exempt.
func checkBackground(pass *analysis.Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(pass.TypesInfo, call)
		if callee != nil && callee.Pkg() != nil && callee.Pkg().Path() == "context" {
			return true // context.WithCancel(context.Background()) etc.
		}
		for _, arg := range call.Args {
			ac, ok := ast.Unparen(arg).(*ast.CallExpr)
			if !ok {
				continue
			}
			fn := calleeFunc(pass.TypesInfo, ac)
			if fn == nil || !isPkgFunc(fn, "context", "Background") && !isPkgFunc(fn, "context", "TODO") {
				continue
			}
			name := "Background"
			if fn.Name() == "TODO" {
				name = "TODO"
			}
			pass.Reportf(arg.Pos(), "background",
				"context.%s() passed directly to a call detaches it from cancellation; thread a caller ctx or mint a bounded lifecycle root with context.With*", name)
		}
		return true
	})
}

// checkTimerLeaks reports time.NewTimer/NewTicker results that are
// neither stopped nor escape the function. Creations in unreachable
// code never run, so they cannot leak.
func checkTimerLeaks(pass *analysis.Pass, body *ast.BlockStmt, fi *funcInfo) {
	created := map[*types.Var]*timerSite{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		if !fi.reachable(as.Pos()) {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Defs[id].(*types.Var)
		if !ok {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.TypesInfo, call)
		if fn == nil {
			return true
		}
		switch {
		case isPkgFunc(fn, "time", "NewTimer"):
			created[v] = &timerSite{pos: as.Pos(), kind: "time.NewTimer"}
		case isPkgFunc(fn, "time", "NewTicker"):
			created[v] = &timerSite{pos: as.Pos(), kind: "time.NewTicker"}
		}
		return true
	})
	if len(created) == 0 {
		return
	}
	// A timer is fine if any use is a .Stop() call, or it escapes: is
	// returned, stored, or passed onward.
	stopped := map[*types.Var]bool{}
	escaped := map[*types.Var]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Stop" {
				if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
					if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok && created[v] != nil {
						stopped[v] = true
					}
				}
			}
			for _, arg := range n.Args {
				markVar(pass.TypesInfo, arg, created, escaped)
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				markVar(pass.TypesInfo, r, created, escaped)
			}
		case *ast.AssignStmt:
			// Re-assignment of the timer into anything (field, map,
			// another variable) counts as an escape.
			for i, rhs := range n.Rhs {
				if i < len(n.Lhs) {
					if _, isIdent := n.Lhs[i].(*ast.Ident); isIdent {
						if _, fromCall := ast.Unparen(rhs).(*ast.CallExpr); fromCall {
							continue // the creation itself
						}
					}
				}
				markVar(pass.TypesInfo, rhs, created, escaped)
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				val := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					val = kv.Value
				}
				markVar(pass.TypesInfo, val, created, escaped)
			}
		}
		return true
	})
	for v, tm := range created {
		if !stopped[v] && !escaped[v] {
			pass.Reportf(tm.pos, "timer-leak",
				"%s %q is never stopped; its goroutine (and channel) outlive this function — defer %s.Stop()",
				tm.kind, v.Name(), v.Name())
		}
	}
}

// timerSite is one time.NewTimer/NewTicker creation.
type timerSite struct {
	pos  token.Pos
	kind string
}

// markVar marks a created timer variable referenced by x as escaped.
func markVar(info *types.Info, x ast.Expr, created map[*types.Var]*timerSite, escaped map[*types.Var]bool) {
	if id, ok := ast.Unparen(x).(*ast.Ident); ok {
		if v, ok := info.Uses[id].(*types.Var); ok {
			if _, tracked := created[v]; tracked {
				escaped[v] = true
			}
		}
	}
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

// isPkgFunc reports whether fn is <pkg>.<name> at package level.
func isPkgFunc(fn *types.Func, pkg, name string) bool {
	return fn.Name() == name && fn.Pkg() != nil && fn.Pkg().Path() == pkg
}
