// Package overhead checks that each chunnel implementation's send path
// prepends no more bytes than its registered core.ImplInfo declares in
// SendOverhead — the figure its connection's Headroom adds to the layer
// below's. If a SendBuf prepends more than declared, the stack
// under-allocates headroom and every send falls off the zero-copy fast
// path (or worse, reallocates mid-stack).
//
// Diagnostic categories:
//
//	exceeds   worst-case Prepend total on a SendBuf path is greater than
//	          the package's declared SendOverhead
//	unbounded a Prepend executes inside a loop, so no static bound exists
//	nonconst  a Prepend size cannot be folded to a constant and carries
//	          no //bertha:overhead N annotation
//
// Prepends whose size is not a compile-time constant can be bounded with
// //bertha:overhead N on the statement line (or the line above).
//
// Batch send paths are held to the same per-message bound: in a
// SendBufs body, a Prepend applied to the element variable of a range
// loop over the burst parameter executes once per element, so it counts
// per-element against SendOverhead instead of tripping the unbounded
// rule.
//
// A chunnel in the declarative form (core.Transform: Overhead, Encode,
// Decode) has no SendBuf of its own — core.TransformConn calls its
// Encode once per message on both paths — so Encode is its send path,
// bounded by the constant its own Overhead() returns (what the
// connection reserves) as well as by the declared SendOverhead (what
// negotiation reserves).
package overhead

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"github.com/bertha-net/bertha/internal/analysis"
)

// Analyzer is the overhead pass.
var Analyzer = &analysis.Analyzer{
	Name: "overhead",
	Doc:  "bound worst-case Prepend bytes on chunnel send paths against declared SendOverhead",
	Run:  run,
}

type implDecl struct {
	name     string
	overhead int
	pos      token.Pos
}

func run(pass *analysis.Pass) error {
	ann := analysis.CollectAnnotations(pass.Fset, pass.Files)
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					decls[fn] = fd
				}
			}
		}
	}
	// A helper in another package is charged quietly: its own package's
	// walk is where its prepends are judged.
	quiet := &walker{pass: pass, ann: ann, decls: decls, memo: map[memoKey]int{}, quiet: true}
	quiet.shared = quiet
	for _, pkg := range pass.Pkgs {
		w := &walker{pass: pass, pkg: pkg.Types, ann: ann, decls: decls, memo: map[memoKey]int{}, shared: quiet}
		w.checkPackage(pkg.Files)
	}
	return nil
}

// checkPackage bounds every send path declared in one package's files
// by the impls the package registers.
func (w *walker) checkPackage(files []*ast.File) {
	pass := w.pass
	impls := collectImpls(pass, files)
	// The bound every send path must respect: the largest declared
	// SendOverhead in the package (packages register one impl today;
	// max keeps multi-impl packages conservative rather than wrong).
	var bound *implDecl
	for i := range impls {
		if bound == nil || impls[i].overhead > bound.overhead {
			bound = &impls[i]
		}
	}
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil {
				continue
			}
			// path names the send path and total is its worst-case
			// prepend per message.
			path, total := "", 0
			switch {
			case fd.Name.Name == "SendBuf" && bound != nil:
				if buf := bufParam(pass, fd); buf != nil {
					path, total = "SendBuf", w.costFunc(fd, buf)
				}
			case fd.Name.Name == "SendBufs" && bound != nil:
				// The batch path must respect the same per-message
				// bound: each element of the burst gets at most
				// SendOverhead bytes of headers.
				if slice := bufSliceParam(pass, fd); slice != nil {
					path, total = "SendBufs (per element)", w.costBatch(fd, slice)
				}
			case fd.Name.Name == "Encode":
				own, ownPos, isTransform := w.transformOverhead(fd)
				buf := bufParam(pass, fd)
				if !isTransform || buf == nil {
					continue
				}
				path, total = "Encode", w.costFunc(fd, buf)
				switch {
				case own >= 0 && total > own:
					pass.Reportf(fd.Name.Pos(), "exceeds",
						"Encode prepends up to %d bytes but the transform's Overhead() returns %d; raise it or shrink the header",
						total, own)
				case own < 0 && bound == nil:
					pass.Reportf(ownPos, "nonconst",
						"Overhead() is not a compile-time constant and the package declares no SendOverhead; the analyzer cannot bound Encode")
				}
			}
			if path != "" && bound != nil && total > bound.overhead {
				pass.Reportf(fd.Name.Pos(), "exceeds",
					"%s prepends up to %d bytes but ImplInfo %q declares SendOverhead %d; raise the declaration or shrink the header",
					path, total, bound.name, bound.overhead)
			}
		}
	}
}

// transformOverhead reports whether fd — a method named Encode — belongs
// to a type in the declarative chunnel form, i.e. one that also has
// Overhead() int and Decode(*wire.Buf) (bool, error), and folds what its
// Overhead returns: own is -1 when that is not a single constant return.
func (w *walker) transformOverhead(fd *ast.FuncDecl) (own int, pos token.Pos, ok bool) {
	fn, _ := w.pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return -1, token.NoPos, false
	}
	recv := fn.Type().(*types.Signature).Recv().Type()
	if p, isPtr := recv.(*types.Pointer); isPtr {
		recv = p.Elem()
	}
	mset := types.NewMethodSet(types.NewPointer(recv))
	method := func(name string) *types.Func {
		if sel := mset.Lookup(w.pkg, name); sel != nil {
			f, _ := sel.Obj().(*types.Func)
			return f
		}
		return nil
	}
	over, dec := method("Overhead"), method("Decode")
	if over == nil || dec == nil {
		return -1, token.NoPos, false
	}
	osig, dsig := over.Type().(*types.Signature), dec.Type().(*types.Signature)
	if osig.Params().Len() != 0 || osig.Results().Len() != 1 ||
		dsig.Params().Len() != 1 || !analysis.IsBufPtr(dsig.Params().At(0).Type()) || dsig.Results().Len() != 2 {
		return -1, token.NoPos, false
	}
	own = -1
	if od := w.decls[over]; od != nil && od.Body != nil && len(od.Body.List) == 1 {
		if ret, isRet := od.Body.List[0].(*ast.ReturnStmt); isRet && len(ret.Results) == 1 {
			if n, exact := foldInt(w.pass.TypesInfo.Types[ret.Results[0]].Value); exact {
				own = n
			}
		}
	}
	return own, over.Pos(), true
}

// collectImpls finds core.ImplInfo composite literals and folds their
// Name and SendOverhead fields to constants.
func collectImpls(pass *analysis.Pass, files []*ast.File) []implDecl {
	var impls []implDecl
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			cl, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			tv, ok := pass.TypesInfo.Types[cl]
			if !ok || !analysis.IsImplInfo(tv.Type) {
				return true
			}
			im := implDecl{name: "?", overhead: -1, pos: cl.Pos()}
			for _, el := range cl.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok {
					continue
				}
				val := pass.TypesInfo.Types[kv.Value].Value
				switch key.Name {
				case "Name":
					if val != nil && val.Kind() == constant.String {
						im.name = constant.StringVal(val)
					}
				case "SendOverhead":
					if n, exact := foldInt(val); exact {
						im.overhead = n
					} else {
						pass.Reportf(kv.Value.Pos(), "nonconst",
							"SendOverhead of impl %q is not a compile-time constant; the analyzer cannot bound the send path", im.name)
					}
				}
			}
			if im.overhead < 0 {
				im.overhead = 0 // absent field: zero value, still checked
			}
			impls = append(impls, im)
			return true
		})
	}
	return impls
}

func foldInt(v constant.Value) (int, bool) {
	if v == nil {
		return 0, false
	}
	n, exact := constant.Int64Val(constant.ToInt(v))
	if !exact {
		return 0, false
	}
	return int(n), true
}

// bufSliceParam returns the []*wire.Buf parameter of a SendBufs
// declaration.
func bufSliceParam(pass *analysis.Pass, fd *ast.FuncDecl) *types.Var {
	if fd.Type.Params == nil {
		return nil
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok && analysis.IsBufSlice(v.Type()) {
				return v
			}
		}
	}
	return nil
}

// costBatch computes the worst-case bytes a SendBufs body prepends to
// any single element of its burst parameter. Each range loop over the
// burst visits every element once, so a Prepend there is per-element
// bounded — not "unbounded" — and loops are summed because each one
// stacks more header onto the same messages.
func (w *walker) costBatch(fd *ast.FuncDecl, slice *types.Var) int {
	if n, ok := analysis.FuncOverhead(fd.Doc); ok {
		return n
	}
	total := 0
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if !exprUsesVar(w.pass.TypesInfo, rs.X, slice) {
			return true
		}
		val, ok := rs.Value.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := w.pass.TypesInfo.Defs[val].(*types.Var)
		if !ok || !analysis.IsBufPtr(v.Type()) {
			return true
		}
		c := &coster{w: w, buf: v, aliases: map[*types.Var]bool{v: true}}
		total += c.block(rs.Body.List)
		return false
	})
	return total
}

// exprUsesVar reports whether x mentions v (directly or through a
// reslice like bs[i:]).
func exprUsesVar(info *types.Info, x ast.Expr, v *types.Var) bool {
	found := false
	ast.Inspect(x, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if u, ok := info.Uses[id].(*types.Var); ok && u == v {
				found = true
			}
		}
		return !found
	})
	return found
}

// bufParam returns the *wire.Buf parameter of a SendBuf declaration.
func bufParam(pass *analysis.Pass, fd *ast.FuncDecl) *types.Var {
	if fd.Type.Params == nil {
		return nil
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok && analysis.IsBufPtr(v.Type()) {
				return v
			}
		}
	}
	return nil
}

type memoKey struct {
	fn  *types.Func
	arg int
}

type walker struct {
	pass *analysis.Pass
	// pkg is the package whose send paths the walker judges; its
	// helpers are costed loudly, through this walker.
	pkg   *types.Package
	ann   *analysis.Annotations
	decls map[*types.Func]*ast.FuncDecl
	memo  map[memoKey]int
	stack []memoKey // recursion guard
	quiet bool      // compute totals, suppress reports
	// shared is the program-wide quiet walker that costs helpers of
	// other packages.
	shared *walker
}

// costFunc computes the worst-case bytes fd prepends to buf.
func (w *walker) costFunc(fd *ast.FuncDecl, buf *types.Var) int {
	// A //bertha:overhead N doc directive asserts the whole function's
	// bound, overriding the body analysis.
	if n, ok := analysis.FuncOverhead(fd.Doc); ok {
		return n
	}
	c := &coster{w: w, buf: buf, aliases: map[*types.Var]bool{buf: true}}
	return c.block(fd.Body.List)
}

// coster computes worst-case prepend totals for one function frame.
type coster struct {
	w       *walker
	buf     *types.Var
	aliases map[*types.Var]bool
	inLoop  bool
}

func (c *coster) block(stmts []ast.Stmt) int {
	total := 0
	for _, s := range stmts {
		total += c.stmt(s)
	}
	return total
}

func (c *coster) stmt(s ast.Stmt) int {
	switch s := s.(type) {
	case nil:
		return 0
	case *ast.ExprStmt:
		return c.expr(s.X)
	case *ast.AssignStmt:
		total := 0
		// Track aliases of the buf parameter so nb := b still counts.
		for i, lhs := range s.Lhs {
			if i < len(s.Rhs) {
				if rid, ok := ast.Unparen(s.Rhs[i]).(*ast.Ident); ok {
					if v, ok := c.w.pass.TypesInfo.Uses[rid].(*types.Var); ok && c.aliases[v] {
						if lv, ok := lhs.(*ast.Ident); ok {
							if lvv, ok := c.w.pass.TypesInfo.Defs[lv].(*types.Var); ok {
								c.aliases[lvv] = true
							}
						}
					}
				}
			}
		}
		for _, l := range s.Lhs {
			total += c.expr(l) // b.Prepend(1)[0] = tag prepends on the left
		}
		for _, r := range s.Rhs {
			total += c.expr(r)
		}
		return total
	case *ast.ReturnStmt:
		total := 0
		for _, r := range s.Results {
			total += c.expr(r)
		}
		return total
	case *ast.BlockStmt:
		return c.block(s.List)
	case *ast.IfStmt:
		total := c.stmt(s.Init)
		total += c.expr(s.Cond)
		then := c.block(s.Body.List)
		els := 0
		if s.Else != nil {
			els = c.stmt(s.Else)
		}
		return total + max(then, els)
	case *ast.ForStmt:
		return c.loop(func() int {
			t := c.stmt(s.Init) + c.expr(s.Cond) + c.stmt(s.Post)
			return t + c.block(s.Body.List)
		})
	case *ast.RangeStmt:
		return c.loop(func() int {
			return c.expr(s.X) + c.block(s.Body.List)
		})
	case *ast.SwitchStmt:
		total := c.stmt(s.Init) + c.expr(s.Tag)
		worst := 0
		for _, cs := range s.Body.List {
			if cc, ok := cs.(*ast.CaseClause); ok {
				worst = max(worst, c.block(cc.Body))
			}
		}
		return total + worst
	case *ast.TypeSwitchStmt:
		total := c.stmt(s.Init) + c.stmt(s.Assign)
		worst := 0
		for _, cs := range s.Body.List {
			if cc, ok := cs.(*ast.CaseClause); ok {
				worst = max(worst, c.block(cc.Body))
			}
		}
		return total + worst
	case *ast.SelectStmt:
		worst := 0
		for _, cs := range s.Body.List {
			if cc, ok := cs.(*ast.CommClause); ok {
				worst = max(worst, c.stmt(cc.Comm)+c.block(cc.Body))
			}
		}
		return worst
	case *ast.DeferStmt:
		return c.expr(s.Call)
	case *ast.GoStmt:
		return c.expr(s.Call)
	case *ast.SendStmt:
		return c.expr(s.Chan) + c.expr(s.Value)
	case *ast.LabeledStmt:
		return c.stmt(s.Stmt)
	case *ast.DeclStmt, *ast.IncDecStmt, *ast.BranchStmt, *ast.EmptyStmt:
		return 0
	}
	return 0
}

func (c *coster) loop(body func() int) int {
	saved := c.inLoop
	c.inLoop = true
	t := body()
	c.inLoop = saved
	return t
}

// expr returns the worst-case prepend bytes executed by x.
func (c *coster) expr(x ast.Expr) int {
	if x == nil {
		return 0
	}
	total := 0
	ast.Inspect(x, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		total += c.call(call)
		return false // c.call recursed into arguments itself
	})
	return total
}

func (c *coster) call(call *ast.CallExpr) int {
	total := 0
	for _, arg := range call.Args {
		total += c.expr(arg)
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if ok {
		total += c.expr(sel.X)
		if sel.Sel.Name == "Prepend" && c.isBufAlias(sel.X) {
			return total + c.prepend(call)
		}
	} else {
		total += c.expr(call.Fun)
	}
	// Call forwarding the buf: charge the callee's cost — loudly for
	// same-package callees, quietly for other packages' helpers.
	if fn := c.calleeFunc(call); fn != nil {
		w := c.w
		if fn.Pkg() != w.pkg {
			w = w.shared
		}
		for i, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
				if v, ok := c.w.pass.TypesInfo.Uses[id].(*types.Var); ok && c.aliases[v] {
					total += w.costCallee(fn, i)
				}
			}
		}
	}
	return total
}

// prepend folds one b.Prepend(n) call to its byte count.
func (c *coster) prepend(call *ast.CallExpr) int {
	n := 0
	if len(call.Args) == 1 {
		if v, exact := foldInt(c.w.pass.TypesInfo.Types[call.Args[0]].Value); exact {
			n = v
		} else if a, ok := c.w.ann.OverheadAt(call.Pos()); ok {
			n = a
		} else {
			if !c.w.quiet {
				c.w.pass.Reportf(call.Pos(), "nonconst",
					"Prepend size is not a compile-time constant; annotate the statement with //bertha:overhead N to bound it")
			}
			return 0
		}
	}
	if c.inLoop {
		// An annotation on a looped prepend asserts the loop total.
		if _, ok := c.w.ann.OverheadAt(call.Pos()); !ok {
			if !c.w.quiet {
				c.w.pass.Reportf(call.Pos(), "unbounded",
					"Prepend inside a loop has no static bound; annotate the statement with //bertha:overhead N for the loop total")
			}
			return 0
		}
	}
	return n
}

func (c *coster) isBufAlias(x ast.Expr) bool {
	id, ok := ast.Unparen(x).(*ast.Ident)
	if !ok {
		return false
	}
	v, ok := c.w.pass.TypesInfo.Uses[id].(*types.Var)
	return ok && c.aliases[v]
}

func (c *coster) calleeFunc(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := c.w.pass.TypesInfo.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := c.w.pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// costCallee computes (memoized) the worst-case prepend bytes a callee
// applies to its i-th argument.
func (w *walker) costCallee(fn *types.Func, argIndex int) int {
	key := memoKey{fn, argIndex}
	if n, ok := w.memo[key]; ok {
		return n
	}
	for _, k := range w.stack {
		if k == key {
			return 0 // recursion: treat as zero rather than diverge
		}
	}
	fd, ok := w.decls[fn]
	if !ok || fd.Body == nil {
		return 0
	}
	if n, ok := analysis.FuncOverhead(fd.Doc); ok {
		w.memo[key] = n
		return n
	}
	// Map argIndex to the parameter variable.
	var param *types.Var
	idx := 0
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if idx == argIndex {
					if v, ok := w.pass.TypesInfo.Defs[name].(*types.Var); ok && analysis.IsBufPtr(v.Type()) {
						param = v
					}
				}
				idx++
			}
		}
	}
	if param == nil {
		w.memo[key] = 0
		return 0
	}
	w.stack = append(w.stack, key)
	c := &coster{w: w, buf: param, aliases: map[*types.Var]bool{param: true}}
	n := c.block(fd.Body.List)
	w.stack = w.stack[:len(w.stack)-1]
	w.memo[key] = n
	return n
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
