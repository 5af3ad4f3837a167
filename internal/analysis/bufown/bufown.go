// Package bufown checks the linear ownership discipline of *wire.Buf
// values: every Buf acquired by a function (from a constructor, a
// RecvBuf, or an owned parameter) must leave it exactly once on every
// path — via Release/CopyOut, an annotated Detach or store
// (//bertha:transfers), a call that takes ownership, or a return.
//
// Diagnostic categories:
//
//	use-after-release  a Buf is used after Release/CopyOut/Detach
//	double-release     a Buf is released twice on one path
//	leak               a path returns without consuming an owned Buf
//	transfer           ownership leaves through Detach or a store into a
//	                   longer-lived structure without //bertha:transfers
//
// Parameters of type *wire.Buf are owned by the callee by default;
// //bertha:borrows <name> in the function's doc comment marks a
// parameter the caller retains. The internal/wire package itself is
// exempt: its methods implement the discipline rather than obey it.
//
// Interprocedural summaries are inferred rather than declared wherever
// the code already proves them (see infer.go and sinks.go): a helper
// that never consumes a Buf parameter on any exit path is learned as
// borrowing it — bottom-up over the SCCs of the program's call graph
// (internal/analysis/callgraph), so borrows chain through helper layers
// and across packages — and a struct field the program demonstrably
// drains (channel receive, map read, range) is a learned sink whose
// stores are sanctioned transfers, replacing most per-statement
// //bertha:transfers annotations.
//
// The batch path follows the same discipline element-wise: a
// []*wire.Buf argument to SendBufs transfers every element to the
// callee, and a RecvBufs-style method storing into an element of a
// []*wire.Buf parameter hands that Buf to the caller — the store is the
// sanctioned transfer and needs no annotation.
//
// Send queues (the coalescer pattern) are declared at the field: a
// []*wire.Buf struct field annotated //bertha:queue <why> is a queue
// whose drain path owns the release, so stores into its elements and
// appends onto it are sanctioned ownership transfers — per-statement
// //bertha:transfers annotations are not required at each enqueue site.
// Stores into unannotated fields remain transfer diagnostics.
//
// The analysis is path-sensitive: each function body is lowered to a
// control-flow graph (internal/analysis/cfg) and the ownership lattice
// is driven to a fixpoint over it, with `err != nil` / `b != nil`
// branch conditions refining the state along each edge. Buf cells are
// keyed by acquisition site; when a loop re-acquires at a site whose
// previous Buf is still held by a loop-carried alias (the
// release-the-previous-iteration pattern), the old value moves to a
// per-site shadow cell so both generations track independently —
// which is exactly the case the pre-CFG walker flagged as a spurious
// per-iteration leak. Per-iteration leaks are detected on the loop
// back edge: a Buf acquired inside the loop, still owned, and
// referenced only by variables local to the loop cannot survive the
// next iteration's re-acquisition.
package bufown

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/bertha-net/bertha/internal/analysis"
	"github.com/bertha-net/bertha/internal/analysis/cfg"
)

// Analyzer is the bufown pass.
var Analyzer = &analysis.Analyzer{
	Name: "bufown",
	Doc:  "check linear ownership of wire.Buf values (release/transfer exactly once per path)",
	Run:  run,
}

// st is the abstract ownership state of one Buf cell.
type st uint8

const (
	stUntracked st = iota // borrowed, nil, or of unknown provenance
	stOwned               // this function must consume it
	stReleased            // terminally consumed by Release/CopyOut/Detach
	stEscaped             // ownership transferred (call arg, return, store, capture)
	stMaybe               // owned on some paths, consumed on others
)

// A cell is one tracked Buf value; aliased variables share a cell.
// Cells are keyed by acquisition site so the fixpoint has a finite
// abstraction; shadow marks the previous-generation cell of a site
// whose value survived a loop-carried re-acquisition.
type cell struct {
	name   string
	pos    token.Pos
	shadow bool
}

// env maps variables to cells and cells to states along one path.
type env struct {
	vars map[*types.Var]*cell
	st   map[*cell]st
	def  map[*cell]bool // has a deferred Release/CopyOut
	// pair links an error variable to the Buf cell produced by the same
	// call (b, err := RecvBuf(...)): on the err != nil branch the Buf is
	// nil by convention and ownership evaporates.
	pair map[*types.Var]*cell
	// pairDead tombstones error variables whose pairings conflicted at a
	// join, so the merge stays monotone across fixpoint iterations.
	pairDead map[*types.Var]bool
}

func newEnv() *env {
	return &env{
		vars:     map[*types.Var]*cell{},
		st:       map[*cell]st{},
		def:      map[*cell]bool{},
		pair:     map[*types.Var]*cell{},
		pairDead: map[*types.Var]bool{},
	}
}

func (e *env) clone() *env {
	c := newEnv()
	for k, v := range e.vars {
		c.vars[k] = v
	}
	for k, v := range e.st {
		c.st[k] = v
	}
	for k, v := range e.def {
		c.def[k] = v
	}
	for k, v := range e.pair {
		c.pair[k] = v
	}
	for k, v := range e.pairDead {
		c.pairDead[k] = v
	}
	return c
}

func (e *env) state(c *cell) st {
	if s, ok := e.st[c]; ok {
		return s
	}
	return stUntracked
}

// mergeFrom folds b into e at a control-flow join and reports whether e
// changed — the fixpoint's revisit signal. It is monotone: vars, def,
// and pairDead only grow, and per-cell states climb the merge lattice.
func (e *env) mergeFrom(b *env) bool {
	changed := false
	for v, c := range b.vars {
		if _, ok := e.vars[v]; !ok {
			e.vars[v] = c
			changed = true
		}
	}
	cells := map[*cell]bool{}
	for c := range e.st {
		cells[c] = true
	}
	for c := range b.st {
		cells[c] = true
	}
	for c := range cells {
		if m := mergeState(e.state(c), b.state(c)); m != e.state(c) {
			e.st[c] = m
			changed = true
		}
	}
	for c := range b.def {
		if !e.def[c] {
			e.def[c] = true
			changed = true
		}
	}
	for v := range b.pairDead {
		if !e.pairDead[v] {
			e.pairDead[v] = true
			delete(e.pair, v)
			changed = true
		}
	}
	for v, c := range b.pair {
		if e.pairDead[v] {
			continue
		}
		if prev, ok := e.pair[v]; ok {
			if prev != c {
				delete(e.pair, v)
				e.pairDead[v] = true
				changed = true
			}
		} else {
			e.pair[v] = c
			changed = true
		}
	}
	return changed
}

func mergeState(a, b st) st {
	if a == b {
		return a
	}
	if a == stUntracked || b == stUntracked {
		return stUntracked
	}
	// released+escaped: consumed either way; anything involving owned or
	// maybe stays conditional.
	if (a == stReleased || a == stEscaped) && (b == stReleased || b == stEscaped) {
		return stEscaped
	}
	return stMaybe
}

func run(pass *analysis.Pass) error {
	// internal/wire implements the discipline rather than obeys it: its
	// functions are neither judged nor summarized.
	var files []*ast.File
	for _, pkg := range pass.Pkgs {
		if !analysis.IsWirePackage(pkg.Types) {
			files = append(files, pkg.Files...)
		}
	}
	ann := analysis.CollectAnnotations(pass.Fset, files)
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					decls[fn] = fd
				}
			}
		}
	}
	// Index the //bertha:queue-annotated struct fields: enqueue stores
	// into them are sanctioned transfers. Two shapes qualify: a plain
	// []*wire.Buf (the coalescer's pending queue) and a slice of slot
	// structs each carrying a *wire.Buf field (the reactor's receive
	// ring, where slots pair the buffer with sequence bookkeeping).
	queues := map[*types.Var]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok &&
						(analysis.IsBufSlice(v.Type()) || analysis.IsBufSlotSlice(v.Type())) &&
						ann.QueueAt(name.Pos()) {
						queues[v] = true
					}
				}
			}
			return true
		})
	}
	// Learn the program's summaries before judging anyone: sink fields
	// from drain witnesses, borrowed parameters from the silent
	// bottom-up dataflow over the call graph.
	sinks := collectSinks(pass.TypesInfo, files)
	inferred := inferBorrows(pass, ann, decls, queues, sinks)
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			fa := &funcAnalysis{pass: pass, ann: ann, decls: decls, queues: queues,
				sinks: sinks, inferred: inferred, fn: fn}
			fa.runFunc(fd.Type, fd.Doc, fd.Body)
		}
	}
	return nil
}

type funcAnalysis struct {
	pass  *analysis.Pass
	ann   *analysis.Annotations
	decls map[*types.Func]*ast.FuncDecl
	// fn is the declared function under analysis (nil for function
	// literals and summary runs); its own inferred borrows key off it.
	fn *types.Func
	// sinks holds the program's inferred sink fields: stores into them
	// are sanctioned transfers like //bertha:queue stores.
	sinks *sinkSet
	// inferred holds the program's learned borrow summaries, consulted
	// by calleeBorrows alongside declared directives.
	inferred map[*types.Func]map[int]bool
	// summarize, when set, runs in place of exit diagnostics: the
	// inference pass records per-parameter consumption instead of
	// reporting leaks.
	summarize func(*env)
	// intoParams holds the function's []*wire.Buf parameters. A store
	// into an element of one is the RecvBufs contract — ownership moves
	// to the caller through the slice — so it consumes the Buf without
	// needing a //bertha:transfers annotation.
	intoParams map[*types.Var]bool
	// queues holds the program's //bertha:queue struct fields: stores
	// into and appends onto a queue are likewise sanctioned transfers
	// (the drain path owns the release).
	queues map[*types.Var]bool
	// cells and shadows key Buf cells by acquisition site so every
	// fixpoint iteration rebinds the same abstract value.
	cells   map[token.Pos]*cell
	shadows map[token.Pos]*cell
	// report gates diagnostics: the fixpoint runs silent, then one
	// reporting pass replays the converged states.
	report bool
	// loopReported records cells already flagged as per-iteration leaks
	// so function-exit checks do not re-report them.
	loopReported map[*cell]bool
}

func (fa *funcAnalysis) info() *types.Info { return fa.pass.TypesInfo }

// cellAt returns the (stable) cell for an acquisition site.
func (fa *funcAnalysis) cellAt(name string, pos token.Pos) *cell {
	if fa.cells == nil {
		fa.cells = map[token.Pos]*cell{}
	}
	if c, ok := fa.cells[pos]; ok {
		return c
	}
	c := &cell{name: name, pos: pos}
	fa.cells[pos] = c
	return c
}

// shadowAt returns the previous-generation cell for a site.
func (fa *funcAnalysis) shadowAt(c *cell) *cell {
	if fa.shadows == nil {
		fa.shadows = map[token.Pos]*cell{}
	}
	if s, ok := fa.shadows[c.pos]; ok {
		return s
	}
	s := &cell{name: c.name, pos: c.pos, shadow: true}
	fa.shadows[c.pos] = s
	return s
}

// runFunc analyzes one function or function literal body.
func (fa *funcAnalysis) runFunc(ft *ast.FuncType, doc *ast.CommentGroup, body *ast.BlockStmt) {
	e0 := newEnv()
	fa.bindParams(ft, doc, e0)
	g := cfg.New(body)
	flow := &cfg.Flow[*env]{
		Entry:    func() *env { return e0.clone() },
		Clone:    func(e *env) *env { return e.clone() },
		Merge:    func(dst, src *env) bool { return dst.mergeFrom(src) },
		Transfer: func(n ast.Node, e *env) { fa.transfer(n, e) },
		Refine:   func(cond ast.Expr, branch bool, e *env) { fa.refine(cond, branch, e) },
	}
	in, ok := flow.Forward(g)
	if !ok {
		return // fixpoint budget exhausted: stay silent rather than guess
	}
	fa.report = true
	fa.loopReported = map[*cell]bool{}
	// Pass 1: loop back edges — per-iteration leaks must be known before
	// the main pass so later return/exit checks skip those cells.
	for _, b := range g.Blocks {
		s, live := in[b]
		if !live {
			continue
		}
		hasBack := false
		for _, ed := range b.Succs {
			if ed.Back {
				hasBack = true
			}
		}
		if !hasBack {
			continue
		}
		fa.report = false
		out := s.clone()
		for _, n := range b.Nodes {
			fa.transfer(n, out)
		}
		fa.report = true
		for _, ed := range b.Succs {
			if ed.Back {
				fa.loopBackCheck(out, ed.Loop)
			}
		}
	}
	// Pass 2: replay every reachable block with reporting on. Return
	// statements run their own exit checks inside transfer.
	for _, b := range g.Blocks {
		s, live := in[b]
		if !live {
			continue
		}
		s = s.clone()
		for _, n := range b.Nodes {
			fa.transfer(n, s)
		}
	}
	// The implicit return: falling off the end of the body.
	if s, ok := in[g.Exit]; ok {
		fa.exitCheck(s, body.Rbrace)
	}
}

func (fa *funcAnalysis) bindParams(ft *ast.FuncType, doc *ast.CommentGroup, e *env) {
	if ft.Params == nil {
		return
	}
	idx := 0
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			i := idx
			idx++
			v, ok := fa.info().Defs[name].(*types.Var)
			if !ok {
				continue
			}
			if analysis.IsBufSlice(v.Type()) {
				if fa.intoParams == nil {
					fa.intoParams = map[*types.Var]bool{}
				}
				fa.intoParams[v] = true
				continue
			}
			if !analysis.IsBufPtr(v.Type()) {
				continue
			}
			if analysis.FuncDirective(doc, "borrows", name.Name) {
				continue
			}
			if m, ok := fa.inferred[fa.fn]; ok && m[i] {
				// Learned borrow: the caller keeps ownership, so this
				// function has no obligation to track.
				continue
			}
			c := fa.cellAt(name.Name, name.Pos())
			e.vars[v] = c
			e.st[c] = stOwned
		}
	}
}

// transfer advances the ownership state across one CFG node.
func (fa *funcAnalysis) transfer(n ast.Node, e *env) {
	switch n := n.(type) {
	case *ast.ExprStmt:
		fa.expr(n.X, e)
	case *ast.AssignStmt:
		fa.assign(n, e)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					var rhs ast.Expr
					if i < len(vs.Values) {
						rhs = vs.Values[i]
					}
					fa.bindIdent(name, rhs, e)
				}
			}
		}
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			if c := fa.trackedIdent(r, e); c != nil {
				fa.useCheck(r.Pos(), c, e)
				e.st[c] = stEscaped
				continue
			}
			fa.expr(r, e)
		}
		if fa.report || fa.summarize != nil {
			fa.exitCheck(e, n.Pos())
		}
	case *ast.DeferStmt:
		fa.deferStmt(n, e)
	case *ast.GoStmt:
		fa.expr(n.Call, e)
	case *ast.SendStmt:
		fa.expr(n.Chan, e)
		if c := fa.trackedIdent(n.Value, e); c != nil {
			if fa.sinks.isSinkSel(n.Chan) {
				// Send into an inferred sink channel: the receive side
				// we witnessed draining it owns the release.
				fa.useCheck(n.Value.Pos(), c, e)
				e.st[c] = stEscaped
			} else {
				fa.consumeStore(n.Value.Pos(), c, e, "channel send")
			}
		} else {
			fa.expr(n.Value, e)
		}
	case *ast.IncDecStmt:
		fa.expr(n.X, e)
	case *ast.RangeStmt:
		// Loop-head marker: the iteration variables come from a container
		// the loop does not own — bind untracked so Release in the body
		// is accepted. (The range expression is its own node.)
		for _, lv := range []ast.Expr{n.Key, n.Value} {
			if id, ok := lv.(*ast.Ident); ok {
				if v, ok := fa.info().Defs[id].(*types.Var); ok && analysis.IsBufPtr(v.Type()) {
					delete(e.vars, v)
				}
			}
		}
	case ast.Expr:
		// Branch conditions, switch tags, case expressions.
		fa.expr(n, e)
	}
}

// refine specializes the state along a conditional edge — the
// path-sensitivity the CFG engine buys.
func (fa *funcAnalysis) refine(cond ast.Expr, branch bool, e *env) {
	// if err != nil: the paired Buf is nil on the error branch, so
	// ownership applies only on the success branch (and vice versa for
	// err == nil).
	if errVar, isNeq, ok := errNilCond(fa.info(), cond); ok {
		if c, paired := e.pair[errVar]; paired {
			if branch == isNeq { // the error branch
				if e.state(c) == stOwned {
					e.st[c] = stUntracked
				}
			}
			delete(e.pair, errVar)
		}
	}
	// if b != nil: on the nil branch the Buf carries no ownership
	// (Release is nil-safe and there is nothing to leak), so a helper
	// returning (msg, nil, nil) for "parked" — the batch decode shape —
	// doesn't flag the fallthrough path.
	if bufVar, isNeq, ok := bufNilCond(fa.info(), cond); ok {
		if c := e.vars[bufVar]; c != nil {
			if branch != isNeq { // the nil branch
				if s := e.state(c); s == stOwned || s == stMaybe {
					e.st[c] = stUntracked
				}
			}
		}
	}
}

// isIntoStore reports whether lhs indexes one of the function's
// []*wire.Buf parameters — the caller-visible slot a RecvBufs-style
// method hands received buffers back through.
func (fa *funcAnalysis) isIntoStore(lhs ast.Expr) bool {
	ix, ok := lhs.(*ast.IndexExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(ix.X).(*ast.Ident)
	if !ok {
		return false
	}
	v := fa.identVar(id)
	return v != nil && fa.intoParams[v]
}

// queueField returns the //bertha:queue-annotated field x resolves to,
// or nil.
func (fa *funcAnalysis) queueField(x ast.Expr) *types.Var {
	sel, ok := ast.Unparen(x).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if v, ok := fa.info().Uses[sel.Sel].(*types.Var); ok && fa.queues[v] {
		return v
	}
	return nil
}

// isQueueStore reports whether lhs stores into a //bertha:queue field —
// an enqueue, where the queue's drain path owns the release. Two store
// shapes are sanctioned: `q.pending[i] = b` on a []*wire.Buf queue, and
// `r.slots[i].b = b` on a slot-struct ring (the element's Buf field,
// indexed through the annotated field directly — a pointer alias to the
// slot is not tracked).
func (fa *funcAnalysis) isQueueStore(lhs ast.Expr) bool {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.IndexExpr:
		return fa.queueField(l.X) != nil
	case *ast.SelectorExpr:
		ix, ok := ast.Unparen(l.X).(*ast.IndexExpr)
		if !ok || fa.queueField(ix.X) == nil {
			return false
		}
		if v, ok := fa.info().Uses[l.Sel].(*types.Var); ok {
			return analysis.IsBufPtr(v.Type())
		}
	}
	return false
}

// isSinkStore reports whether lhs indexes an inferred sink field — a
// reassembly or pending map whose drain path the package demonstrates.
func (fa *funcAnalysis) isSinkStore(lhs ast.Expr) bool {
	ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
	return ok && fa.sinks.isSinkSel(ix.X)
}

// sanctionedAppend handles `slot = append(src, b, ...)` where slot is a
// sanctioned container (a caller's slice param element, a queue, or an
// inferred sink): the appended Bufs transfer to the container's drain
// path. It reports whether it handled the statement.
func (fa *funcAnalysis) sanctionedAppend(lhs, rhs ast.Expr, e *env) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	if _, isBuiltin := fa.info().Uses[id].(*types.Builtin); !isBuiltin {
		return false
	}
	if !(fa.isIntoStore(lhs) || fa.isQueueStore(lhs) || fa.isSinkStore(lhs) || fa.sinks.isSinkSel(lhs)) {
		return false
	}
	for i, arg := range call.Args {
		if c := fa.trackedIdent(arg, e); c != nil && i > 0 {
			fa.useCheck(arg.Pos(), c, e)
			e.st[c] = stEscaped
			continue
		}
		fa.expr(arg, e)
	}
	return true
}

// exitCheck reports owned cells still live when a path leaves the
// function.
func (fa *funcAnalysis) exitCheck(e *env, at token.Pos) {
	if fa.summarize != nil {
		fa.summarize(e)
		return
	}
	if !fa.report {
		return
	}
	seen := map[*cell]bool{}
	for _, c := range e.vars {
		if seen[c] || e.def[c] || fa.loopReported[c] {
			continue
		}
		seen[c] = true
		switch e.state(c) {
		case stOwned:
			fa.pass.Reportf(at, "leak",
				"pooled Buf %q (acquired at line %d) is not released, transferred, or returned on this path",
				c.name, fa.pass.Fset.Position(c.pos).Line)
		case stMaybe:
			fa.pass.Reportf(at, "leak",
				"pooled Buf %q (acquired at line %d) may leak: consumed on some paths into this exit but not all",
				c.name, fa.pass.Fset.Position(c.pos).Line)
		}
	}
}

// loopBackCheck runs at a loop back edge: a Buf acquired inside the
// loop, still owned, and referenced only by variables declared inside
// the loop is overwritten by the next iteration — a per-iteration leak.
// A loop-carried alias declared outside the loop (the release-previous
// pattern) keeps the value reachable, so it is exempt: whether IT leaks
// is decided at function exit.
func (fa *funcAnalysis) loopBackCheck(e *env, loop ast.Stmt) {
	var rbrace token.Pos
	switch l := loop.(type) {
	case *ast.ForStmt:
		rbrace = l.Body.Rbrace
	case *ast.RangeStmt:
		rbrace = l.Body.Rbrace
	default:
		return
	}
	inLoop := func(p token.Pos) bool { return p >= loop.Pos() && p < loop.End() }
	seen := map[*cell]bool{}
	for _, c := range e.vars {
		if seen[c] || fa.loopReported[c] || e.def[c] {
			continue
		}
		seen[c] = true
		if e.state(c) != stOwned || !inLoop(c.pos) {
			continue
		}
		escapes := false
		for v, vc := range e.vars {
			if vc == c && !inLoop(v.Pos()) {
				escapes = true
			}
		}
		if escapes {
			continue
		}
		fa.loopReported[c] = true
		fa.pass.Reportf(rbrace, "leak",
			"pooled Buf %q (acquired at line %d) leaks at the end of each loop iteration",
			c.name, fa.pass.Fset.Position(c.pos).Line)
	}
}

func (fa *funcAnalysis) deferStmt(s *ast.DeferStmt, e *env) {
	if sel, ok := s.Call.Fun.(*ast.SelectorExpr); ok {
		if c := fa.trackedIdent(sel.X, e); c != nil {
			switch sel.Sel.Name {
			case "Release", "CopyOut":
				e.def[c] = true
				return
			}
		}
	}
	fa.expr(s.Call, e)
}

// assign handles := and = statements: alias propagation, new owned
// cells from Buf-returning calls, and the transfer rule for stores.
func (fa *funcAnalysis) assign(s *ast.AssignStmt, e *env) {
	if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
		// b, err := f(ctx) and friends: classify once, bind each LHS.
		fa.expr(s.Rhs[0], e)
		_, fromCall := ast.Unparen(s.Rhs[0]).(*ast.CallExpr)
		var bufCell *cell
		var errVar *types.Var
		for _, lhs := range s.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				fa.storeNonIdentLHS(lhs, e)
				continue
			}
			if c := fa.bindVar(id, fromCall, e); c != nil {
				bufCell = c
			}
			if v := fa.identVar(id); v != nil && isErrorType(v.Type()) {
				delete(e.pair, v)
				errVar = v
			}
		}
		if bufCell != nil && errVar != nil && !e.pairDead[errVar] {
			e.pair[errVar] = bufCell
		}
		return
	}
	for i, lhs := range s.Lhs {
		var rhs ast.Expr
		if i < len(s.Rhs) {
			rhs = s.Rhs[i]
		}
		if id, ok := lhs.(*ast.Ident); ok {
			fa.bindIdent(id, rhs, e)
			continue
		}
		// Store target: m[k] = b, x.f = b, *p = b.
		if c := fa.trackedIdent(rhs, e); c != nil {
			if fa.isIntoStore(lhs) || fa.isQueueStore(lhs) || fa.isSinkStore(lhs) {
				// into[i] = b inside a RecvBufs-shaped method (the slice
				// belongs to the caller), q[i] = b onto a declared
				// //bertha:queue field, or m[k] = b into an inferred sink
				// (the drain path releases): the store IS the transfer.
				fa.useCheck(rhs.Pos(), c, e)
				e.st[c] = stEscaped
			} else {
				fa.consumeStore(rhs.Pos(), c, e, "store")
			}
		} else if rhs != nil {
			if !fa.sanctionedAppend(lhs, rhs, e) {
				fa.expr(rhs, e)
			}
		}
		fa.storeNonIdentLHS(lhs, e)
	}
}

// storeNonIdentLHS evaluates the subexpressions of a non-identifier
// assignment target for use checks.
func (fa *funcAnalysis) storeNonIdentLHS(lhs ast.Expr, e *env) {
	switch lhs := lhs.(type) {
	case *ast.IndexExpr:
		fa.expr(lhs.X, e)
		fa.expr(lhs.Index, e)
	case *ast.SelectorExpr:
		fa.expr(lhs.X, e)
	case *ast.StarExpr:
		fa.expr(lhs.X, e)
	}
}

// bindIdent binds one identifier from one RHS expression.
func (fa *funcAnalysis) bindIdent(id *ast.Ident, rhs ast.Expr, e *env) {
	v := fa.identVar(id)
	if v == nil || !analysis.IsBufPtr(v.Type()) {
		if v != nil {
			delete(e.pair, v) // a reassigned error no longer guards its Buf
		}
		if rhs != nil {
			fa.expr(rhs, e)
		}
		return
	}
	if rhs == nil {
		delete(e.vars, v) // var b *wire.Buf — nil until assigned
		return
	}
	if rid, ok := ast.Unparen(rhs).(*ast.Ident); ok {
		if c := fa.trackedIdentVar(rid, e); c != nil {
			fa.useCheck(rid.Pos(), c, e)
			e.vars[v] = c // alias: both names share the cell
			return
		}
		delete(e.vars, v)
		return
	}
	fa.expr(rhs, e)
	_, fromCall := ast.Unparen(rhs).(*ast.CallExpr)
	fa.bindVarAt(v, id, fromCall, e)
}

func (fa *funcAnalysis) bindVar(id *ast.Ident, fromCall bool, e *env) *cell {
	v := fa.identVar(id)
	if v == nil || !analysis.IsBufPtr(v.Type()) {
		return nil
	}
	return fa.bindVarAt(v, id, fromCall, e)
}

func (fa *funcAnalysis) bindVarAt(v *types.Var, id *ast.Ident, fromCall bool, e *env) *cell {
	if !fromCall {
		// Map reads, channel receives, field loads, type assertions:
		// provenance unknown, do not track.
		delete(e.vars, v)
		return nil
	}
	c := fa.cellAt(id.Name, id.Pos())
	// Generation split: re-acquiring at a site whose previous value is
	// still held by another variable (the loop-carried release-previous
	// pattern). Move the old value to the site's shadow cell so both
	// generations track independently.
	aliased := false
	for ov, oc := range e.vars {
		if oc == c && ov != v {
			aliased = true
		}
	}
	if aliased {
		sh := fa.shadowAt(c)
		shLive := false
		for ov, oc := range e.vars {
			if oc == sh && ov != v {
				shLive = true
			}
		}
		if shLive {
			// A third generation is live: merge rather than clobber.
			e.st[sh] = mergeState(e.state(sh), e.state(c))
		} else {
			e.st[sh] = e.state(c)
		}
		if e.def[c] {
			e.def[sh] = true
		}
		for ov, oc := range e.vars {
			if oc == c && ov != v {
				e.vars[ov] = sh
			}
		}
		for pv, pc := range e.pair {
			if pc == c {
				e.pair[pv] = sh
			}
		}
	}
	delete(e.def, c) // a fresh Buf has no deferred release yet
	e.vars[v] = c
	e.st[c] = stOwned
	return c
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// identVar resolves an identifier to its variable (definition or use).
func (fa *funcAnalysis) identVar(id *ast.Ident) *types.Var {
	if v, ok := fa.info().Defs[id].(*types.Var); ok {
		return v
	}
	if v, ok := fa.info().Uses[id].(*types.Var); ok {
		return v
	}
	return nil
}

// trackedIdent returns the cell behind x when x is a tracked Buf
// identifier.
func (fa *funcAnalysis) trackedIdent(x ast.Expr, e *env) *cell {
	id, ok := ast.Unparen(x).(*ast.Ident)
	if !ok {
		return nil
	}
	return fa.trackedIdentVar(id, e)
}

func (fa *funcAnalysis) trackedIdentVar(id *ast.Ident, e *env) *cell {
	v := fa.identVar(id)
	if v == nil {
		return nil
	}
	return e.vars[v]
}

// useCheck reports use of a definitely-released Buf.
func (fa *funcAnalysis) useCheck(pos token.Pos, c *cell, e *env) {
	if e.state(c) == stReleased {
		if fa.report {
			fa.pass.Reportf(pos, "use-after-release",
				"use of Buf %q after it was released or detached", c.name)
		}
		if fa.summarize == nil {
			e.st[c] = stUntracked // silence cascading reports
		}
		// In summary mode the released state must survive uses: it is
		// the evidence the parameter was consumed.
	}
}

// consumeStore applies the transfer rule: storing an owned Buf into a
// longer-lived structure needs a //bertha:transfers annotation.
func (fa *funcAnalysis) consumeStore(pos token.Pos, c *cell, e *env, kind string) {
	fa.useCheck(pos, c, e)
	if s := e.state(c); s == stOwned || s == stMaybe {
		if fa.report && !fa.ann.TransfersAt(pos) {
			fa.pass.Reportf(pos, "transfer",
				"ownership of Buf %q leaves this function via %s; annotate the statement with //bertha:transfers or release a copy", c.name, kind)
		}
	}
	e.st[c] = stEscaped
}

// expr walks an expression, applying use checks and consumption.
func (fa *funcAnalysis) expr(x ast.Expr, e *env) {
	switch x := x.(type) {
	case nil:
	case *ast.Ident:
		if c := fa.trackedIdentVar(x, e); c != nil {
			fa.useCheck(x.Pos(), c, e)
		}
	case *ast.CallExpr:
		fa.call(x, e)
	case *ast.ParenExpr:
		fa.expr(x.X, e)
	case *ast.SelectorExpr:
		fa.expr(x.X, e)
	case *ast.StarExpr:
		fa.expr(x.X, e)
	case *ast.UnaryExpr:
		fa.expr(x.X, e)
	case *ast.BinaryExpr:
		fa.expr(x.X, e)
		fa.expr(x.Y, e)
	case *ast.IndexExpr:
		fa.expr(x.X, e)
		fa.expr(x.Index, e)
	case *ast.SliceExpr:
		fa.expr(x.X, e)
		fa.expr(x.Low, e)
		fa.expr(x.High, e)
		fa.expr(x.Max, e)
	case *ast.TypeAssertExpr:
		fa.expr(x.X, e)
	case *ast.KeyValueExpr:
		fa.expr(x.Value, e)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			val := el
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				val = kv.Value
			}
			if c := fa.trackedIdent(val, e); c != nil {
				fa.consumeStore(val.Pos(), c, e, "composite literal")
				continue
			}
			fa.expr(val, e)
		}
	case *ast.FuncLit:
		fa.funcLit(x, e)
	}
}

// call handles method calls on Bufs, ownership-transferring arguments,
// and builtins.
func (fa *funcAnalysis) call(x *ast.CallExpr, e *env) {
	// Terminal methods on a tracked receiver.
	if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
		if c := fa.trackedIdent(sel.X, e); c != nil {
			switch sel.Sel.Name {
			case "Release":
				if fa.report {
					if e.state(c) == stReleased {
						fa.pass.Reportf(x.Pos(), "double-release",
							"Buf %q is released twice on this path", c.name)
					} else if e.def[c] {
						fa.pass.Reportf(x.Pos(), "double-release",
							"Buf %q has a deferred release; this explicit Release runs first and double-releases", c.name)
					}
				}
				e.st[c] = stReleased
				fa.evalArgs(x, e)
				return
			case "CopyOut":
				fa.useCheck(x.Pos(), c, e)
				e.st[c] = stReleased
				fa.evalArgs(x, e)
				return
			case "Detach":
				fa.useCheck(x.Pos(), c, e)
				if fa.report && !fa.ann.TransfersAt(x.Pos()) {
					fa.pass.Reportf(x.Pos(), "transfer",
						"Detach removes Buf %q from pooling; annotate the statement with //bertha:transfers", c.name)
				}
				e.st[c] = stReleased
				fa.evalArgs(x, e)
				return
			default:
				// Any other method (Bytes, Len, Prepend, ...) is a use.
				fa.useCheck(sel.X.Pos(), c, e)
			}
		} else {
			fa.expr(sel.X, e)
		}
	} else {
		// Builtins take no ownership except append, which stores.
		if id, ok := x.Fun.(*ast.Ident); ok {
			if _, isBuiltin := fa.info().Uses[id].(*types.Builtin); isBuiltin {
				if id.Name == "append" {
					queueAppend := len(x.Args) > 0 &&
						(fa.queueField(x.Args[0]) != nil || fa.sinks.isSinkSel(x.Args[0]))
					for i, arg := range x.Args {
						if c := fa.trackedIdent(arg, e); c != nil && i > 0 {
							if queueAppend {
								// Appending onto a //bertha:queue field is
								// the enqueue form of the sanctioned
								// transfer.
								fa.useCheck(arg.Pos(), c, e)
								e.st[c] = stEscaped
							} else {
								fa.consumeStore(arg.Pos(), c, e, "append")
							}
							continue
						}
						fa.expr(arg, e)
					}
				} else {
					fa.evalArgs(x, e)
				}
				return
			}
		}
		fa.expr(x.Fun, e)
	}
	// Ordinary call: a *wire.Buf argument transfers ownership to the
	// callee unless the callee borrows it.
	callee := fa.calleeFunc(x)
	for i, arg := range x.Args {
		if c := fa.trackedIdent(arg, e); c != nil {
			fa.useCheck(arg.Pos(), c, e)
			if !fa.calleeBorrows(callee, i) {
				if s := e.state(c); s == stOwned || s == stMaybe || s == stUntracked {
					e.st[c] = stEscaped
				}
			}
			continue
		}
		fa.expr(arg, e)
	}
}

func (fa *funcAnalysis) evalArgs(x *ast.CallExpr, e *env) {
	for _, arg := range x.Args {
		fa.expr(arg, e)
	}
}

// calleeFunc resolves the called function when statically known.
func (fa *funcAnalysis) calleeFunc(x *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(x.Fun).(type) {
	case *ast.Ident:
		if fn, ok := fa.info().Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := fa.info().Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// calleeBorrows reports whether the callee borrows its i-th parameter:
// inferred, or marked //bertha:borrows in its doc comment.
func (fa *funcAnalysis) calleeBorrows(fn *types.Func, i int) bool {
	if fn == nil {
		return false
	}
	if m, ok := fa.inferred[fn]; ok && m[i] {
		return true
	}
	if fd, ok := fa.decls[fn]; ok {
		if fd.Type.Params == nil {
			return false
		}
		idx := 0
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if idx == i {
					return analysis.FuncDirective(fd.Doc, "borrows", name.Name)
				}
				idx++
			}
		}
	}
	return false
}

// funcLit marks captured owned Bufs as escaped (the closure owns them
// now) and analyzes the literal's body as its own function — once, in
// the reporting pass.
func (fa *funcAnalysis) funcLit(fl *ast.FuncLit, e *env) {
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := fa.info().Uses[id].(*types.Var)
		if !ok {
			return true
		}
		if c, ok := e.vars[v]; ok {
			if s := e.state(c); s == stOwned || s == stMaybe {
				e.st[c] = stEscaped
			}
		}
		return true
	})
	if fa.report {
		sub := &funcAnalysis{pass: fa.pass, ann: fa.ann, decls: fa.decls, queues: fa.queues,
			sinks: fa.sinks, inferred: fa.inferred}
		sub.runFunc(fl.Type, nil, fl.Body)
	}
}

// errNilCond matches conditions of the form `err != nil` / `err == nil`
// over a plain error variable.
func errNilCond(info *types.Info, cond ast.Expr) (*types.Var, bool, bool) {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (be.Op != token.NEQ && be.Op != token.EQL) {
		return nil, false, false
	}
	x, y := ast.Unparen(be.X), ast.Unparen(be.Y)
	if isNilIdent(x) {
		x, y = y, x
	}
	if !isNilIdent(y) {
		return nil, false, false
	}
	id, ok := x.(*ast.Ident)
	if !ok {
		return nil, false, false
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok || !isErrorType(v.Type()) {
		return nil, false, false
	}
	return v, be.Op == token.NEQ, true
}

// bufNilCond matches conditions of the form `b != nil` / `b == nil`
// over a plain *wire.Buf variable.
func bufNilCond(info *types.Info, cond ast.Expr) (*types.Var, bool, bool) {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (be.Op != token.NEQ && be.Op != token.EQL) {
		return nil, false, false
	}
	x, y := ast.Unparen(be.X), ast.Unparen(be.Y)
	if isNilIdent(x) {
		x, y = y, x
	}
	if !isNilIdent(y) {
		return nil, false, false
	}
	id, ok := x.(*ast.Ident)
	if !ok {
		return nil, false, false
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok || !analysis.IsBufPtr(v.Type()) {
		return nil, false, false
	}
	return v, be.Op == token.NEQ, true
}

func isNilIdent(x ast.Expr) bool {
	id, ok := x.(*ast.Ident)
	return ok && id.Name == "nil"
}
