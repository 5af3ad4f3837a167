// Package speccheck evaluates Chunnel DAG construction — the
// spec.New / spec.Seq / spec.Select / WithScope call trees that build a
// *spec.Stack — at analysis time, and checks the result against the
// registry knowledge it gathers from core.ImplInfo literals and
// RegisterResolver calls across the whole build.
//
// Structural defects are reported at the construction site in any
// package:
//
//	empty-type    spec.New("") — a node with no chunnel type name
//	empty-branch  a select branch that is an empty stack (an empty
//	              Wrap() is only legal at the top level of a client)
//
// Registry-dependent defects are reported only where a stack reaches a
// negotiation sink (bertha.New / core.NewEndpoint), because only a
// stack that is actually negotiated needs implementations; illustrative
// stacks (the paper's A |> B([C, D]) figure) may use fictional types:
//
//	unknown-type  a concrete node whose type has no registered
//	              implementation, or a select node with no resolver
//	scope         a node whose scope constraint excludes every
//	              registered implementation's location
//	dup-type      the same chunnel type twice in one sequence level
//	              (waived when the endpoint enables the optimizer,
//	              whose eliminate pass dedupes)
//	too-deep      select nesting beyond spec.MaxDepth
//
// The evaluator follows constants, single-assignment locals, and
// functions anywhere in the program that return a constant-shaped Node
// or Stack: reliable.Node evaluates, so bertha.Reliable() (which
// returns it) does too, and a stack built from bertha helpers in an
// example package evaluates fully. A sink is checked against the
// registrations — ImplInfo literals and resolver registrations — of the
// packages in its import closure, the ones linked into its binary.
package speccheck

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"

	"github.com/bertha-net/bertha/internal/analysis"
)

// specNode is the evaluated shape of one DAG node.
type specNode struct {
	// known is false for nodes the evaluator could not resolve; such
	// nodes are skipped by every check rather than guessed at.
	known bool
	// typ is the chunnel type name ("" only when unknown or defective).
	typ string
	// scope is the numeric spec.Scope constraint (0 = ScopeAny).
	scope uint8
	// sel marks a branching node; branches holds its alternatives.
	sel      bool
	branches []specStack
}

// specStack is the evaluated shape of a stack.
type specStack struct {
	nodes []specNode
}

// registry is what some packages contribute to the chunnel registry.
type registry struct {
	impls   map[string][]uint8 // chunnel type -> registered locations
	selects map[string]bool    // select types with a resolver
}

// maxDepth mirrors spec.MaxDepth, the runtime bound on select nesting.
const maxDepth = 8

// Analyzer is the speccheck pass.
var Analyzer = &analysis.Analyzer{
	Name: "speccheck",
	Doc:  "evaluate Chunnel DAG construction against the registered implementations and their scopes",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	c := &checker{pass: pass, nodes: map[*types.Func]specNode{}, stacks: map[*types.Func]specStack{}}
	c.inferBuilders()
	regs := map[*types.Package]*registry{}
	for _, pkg := range pass.Pkgs {
		regs[pkg.Types] = c.scanRegistry(pkg.Files)
	}
	for _, pkg := range pass.Pkgs {
		c.reg = closureRegistry(pkg.Types, regs)
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				c.checkConstruction(call)
				c.checkSink(call)
				return true
			})
		}
	}
	return nil
}

type checker struct {
	pass *analysis.Pass
	// nodes and stacks hold the builder functions that return a
	// constant-shaped spec.Node or *spec.Stack.
	nodes  map[*types.Func]specNode
	stacks map[*types.Func]specStack
	// reg is the registry of the package being checked.
	reg *registry
	// locals caches, per enclosing function, the single-assignment
	// local variable initializers the evaluator may follow.
	locals map[*types.Var]ast.Expr
}

// ---- registry knowledge ----

// scanRegistry collects the core.ImplInfo composite literals and
// RegisterResolver calls in files.
func (c *checker) scanRegistry(files []*ast.File) *registry {
	reg := &registry{impls: map[string][]uint8{}, selects: map[string]bool{}}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				tv, ok := c.pass.TypesInfo.Types[n]
				if !ok || !analysis.IsImplInfo(tv.Type) {
					return true
				}
				typ, loc := "", uint8(0)
				for _, elt := range n.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					key, ok := kv.Key.(*ast.Ident)
					if !ok {
						continue
					}
					switch key.Name {
					case "Type":
						if s, ok := c.constString(kv.Value); ok {
							typ = s
						}
					case "Location":
						if v, ok := c.constUint(kv.Value); ok {
							loc = v
						}
					}
				}
				if typ != "" {
					reg.impls[typ] = append(reg.impls[typ], loc)
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "RegisterResolver" || len(n.Args) < 1 {
					return true
				}
				if s, ok := c.constString(n.Args[0]); ok && s != "" {
					reg.selects[s] = true
				}
			}
			return true
		})
	}
	return reg
}

// closureRegistry merges the registries of pkg and every analyzed
// package it imports, directly or transitively.
func closureRegistry(pkg *types.Package, regs map[*types.Package]*registry) *registry {
	out := &registry{impls: map[string][]uint8{}, selects: map[string]bool{}}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		if reg := regs[p]; reg != nil {
			for typ, locs := range reg.impls {
				out.impls[typ] = append(out.impls[typ], locs...)
			}
			for s := range reg.selects {
				out.selects[s] = true
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	walk(pkg)
	return out
}

// allowedBy mirrors core.Location.AllowedBy over the numeric constant
// values the type checker supplied (spec.Scope* / core.Loc* iota order).
func allowedBy(loc uint8, scope uint8) bool {
	const (
		scopeApplication = 1
		scopeHost        = 2
		locUserspace     = 0
		locSwitch        = 3
	)
	switch scope {
	case scopeApplication:
		return loc == locUserspace
	case scopeHost:
		return loc != locSwitch
	default: // any, localnet, global
		return true
	}
}

// ---- builders ----

// inferBuilders records every function in the program whose body
// returns a constant-shaped spec.Node or *spec.Stack, iterating to a
// fixpoint so helpers that call other helpers resolve too.
func (c *checker) inferBuilders() {
	type builder struct {
		fn  *types.Func
		ret ast.Expr
	}
	var builders []builder
	for _, f := range c.pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Type.Results == nil || len(fd.Type.Results.List) != 1 {
				continue
			}
			ret := soleReturn(fd.Body)
			if ret == nil {
				continue
			}
			fn, ok := c.pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			builders = append(builders, builder{fn, ret})
		}
	}
	for changed := true; changed; {
		changed = false
		for _, b := range builders {
			rt := b.fn.Type().(*types.Signature).Results().At(0).Type()
			switch {
			case isSpecNodeType(rt):
				if _, have := c.nodes[b.fn]; have {
					continue
				}
				if node, ok := c.evalNode(b.ret); ok && node.known {
					c.nodes[b.fn] = node
					changed = true
				}
			case isSpecStackPtr(rt):
				if _, have := c.stacks[b.fn]; have {
					continue
				}
				if st, ok := c.evalStack(b.ret); ok {
					c.stacks[b.fn] = *st
					changed = true
				}
			}
		}
	}
}

// soleReturn returns the expression of the body's single top-level
// return statement, or nil when the body's shape is anything else.
func soleReturn(body *ast.BlockStmt) ast.Expr {
	if len(body.List) != 1 {
		return nil
	}
	ret, ok := body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return nil
	}
	return ret.Results[0]
}

// ---- structural checks (any construction site) ----

func (c *checker) checkConstruction(call *ast.CallExpr) {
	fn := calleeFunc(c.pass.TypesInfo, call)
	if fn == nil || !specPkg(fn.Pkg()) && !berthaPkg(fn.Pkg()) {
		return
	}
	switch fn.Name() {
	case "New":
		if !specPkg(fn.Pkg()) || len(call.Args) == 0 {
			return
		}
		if s, ok := c.constString(call.Args[0]); ok && s == "" {
			c.pass.Reportf(call.Args[0].Pos(), "empty-type",
				"chunnel node with empty type name never matches an implementation")
		}
	case "Select":
		if call.Ellipsis.IsValid() {
			return
		}
		branches := call.Args[1:] // bertha.Select(typ, branches...)
		if specPkg(fn.Pkg()) && len(call.Args) >= 2 {
			branches = call.Args[2:] // spec.Select(typ, args, branches...)
		}
		for _, b := range branches {
			if st, ok := c.evalStack(b); ok && len(st.nodes) == 0 {
				c.pass.Reportf(b.Pos(), "empty-branch",
					"select branch is an empty stack; negotiation cannot resolve to nothing")
			}
		}
	}
}

// ---- sink checks ----

// checkSink evaluates stack arguments at negotiation entry points.
func (c *checker) checkSink(call *ast.CallExpr) {
	fn := calleeFunc(c.pass.TypesInfo, call)
	if fn == nil {
		return
	}
	isSink := (fn.Name() == "New" && berthaPkg(fn.Pkg())) ||
		(fn.Name() == "NewEndpoint" && corePkg(fn.Pkg()))
	if !isSink {
		return
	}
	optimized := false
	for _, a := range call.Args {
		if isOptimizerOption(a) {
			optimized = true
		}
	}
	for _, a := range call.Args {
		tv, ok := c.pass.TypesInfo.Types[a]
		if !ok || !isSpecStackPtr(tv.Type) {
			continue
		}
		st, ok := c.evalStack(a)
		if !ok {
			continue
		}
		c.checkStack(a, st, 0, optimized)
	}
}

// isOptimizerOption reports whether the sink argument enables the §6
// optimizer (whose eliminate pass legalizes duplicate sequence types).
func isOptimizerOption(a ast.Expr) bool {
	call, ok := ast.Unparen(a).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "WithOptimizer"
	case *ast.SelectorExpr:
		return fun.Sel.Name == "WithOptimizer"
	}
	return false
}

// checkStack applies the registry-dependent checks to an evaluated
// stack reaching a sink, reporting at the sink argument's position.
func (c *checker) checkStack(at ast.Expr, st *specStack, depth int, optimized bool) {
	if depth > maxDepth {
		c.pass.Reportf(at.Pos(), "too-deep",
			"select nesting exceeds spec.MaxDepth (%d); Validate will reject this stack", maxDepth)
		return
	}
	seen := map[string]bool{}
	for _, n := range st.nodes {
		if !n.known || n.typ == "" {
			continue
		}
		if !optimized && seen[n.typ] {
			c.pass.Reportf(at.Pos(), "dup-type",
				"chunnel type %q appears twice in one sequence; enable the optimizer or drop the duplicate", n.typ)
		}
		seen[n.typ] = true
		if len(c.reg.impls) == 0 {
			continue // no registry knowledge loaded: stay silent
		}
		locs, registered := c.reg.impls[n.typ]
		if n.sel {
			if !c.reg.selects[n.typ] && !registered {
				c.pass.Reportf(at.Pos(), "unknown-type",
					"select type %q has no registered resolver", n.typ)
			}
		} else if !registered {
			c.pass.Reportf(at.Pos(), "unknown-type",
				"chunnel type %q has no registered implementation", n.typ)
		}
		if registered && n.scope != 0 {
			any := false
			for _, loc := range locs {
				if allowedBy(loc, n.scope) {
					any = true
					break
				}
			}
			if !any {
				c.pass.Reportf(at.Pos(), "scope",
					"scope constraint on %q excludes every registered implementation's location", n.typ)
			}
		}
		for i := range n.branches {
			c.checkStack(at, &n.branches[i], depth+1, optimized)
		}
	}
}

// ---- the evaluator ----

// evalStack resolves expr to a stack shape when it is built from Seq /
// Wrap / a single-assignment local / a known builder call.
func (c *checker) evalStack(expr ast.Expr) (*specStack, bool) {
	expr = ast.Unparen(expr)
	switch e := expr.(type) {
	case *ast.Ident:
		if init := c.localInit(e); init != nil {
			return c.evalStack(init)
		}
		return nil, false
	case *ast.CallExpr:
		fn := calleeFunc(c.pass.TypesInfo, e)
		if fn == nil {
			return nil, false
		}
		if e.Ellipsis.IsValid() {
			return nil, false // forwarded slice: element exprs not visible
		}
		if (fn.Name() == "Seq" && specPkg(fn.Pkg())) ||
			(fn.Name() == "Wrap" && berthaPkg(fn.Pkg())) {
			st := &specStack{}
			for _, a := range e.Args {
				node, ok := c.evalNode(a)
				if !ok {
					node = specNode{} // keep position, mark unknown
				}
				st.nodes = append(st.nodes, node)
			}
			return st, true
		}
		if st, ok := c.stacks[fn]; ok {
			return &st, true
		}
	}
	return nil, false
}

// evalNode resolves expr to a node shape: spec.New / spec.Select /
// bertha.Select / Node.WithScope / a known builder call.
func (c *checker) evalNode(expr ast.Expr) (specNode, bool) {
	expr = ast.Unparen(expr)
	switch e := expr.(type) {
	case *ast.Ident:
		if init := c.localInit(e); init != nil {
			return c.evalNode(init)
		}
	case *ast.CallExpr:
		fn := calleeFunc(c.pass.TypesInfo, e)
		if fn == nil || e.Ellipsis.IsValid() {
			return specNode{}, false
		}
		switch {
		case fn.Name() == "New" && specPkg(fn.Pkg()) && len(e.Args) >= 1:
			typ, ok := c.constString(e.Args[0])
			if !ok {
				return specNode{}, false
			}
			return specNode{known: true, typ: typ}, true
		case fn.Name() == "Select" && (specPkg(fn.Pkg()) || berthaPkg(fn.Pkg())) && len(e.Args) >= 1:
			typ, ok := c.constString(e.Args[0])
			if !ok {
				return specNode{}, false
			}
			node := specNode{known: true, typ: typ, sel: true}
			branches := e.Args[1:]
			if specPkg(fn.Pkg()) && len(e.Args) >= 2 {
				branches = e.Args[2:] // skip the args parameter
			}
			for _, b := range branches {
				if st, ok := c.evalStack(b); ok {
					node.branches = append(node.branches, *st)
				} else {
					node.branches = append(node.branches, specStack{nodes: []specNode{{}}})
				}
			}
			return node, true
		case fn.Name() == "WithScope" && specPkg(fn.Pkg()):
			sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr)
			if !ok {
				return specNode{}, false
			}
			node, ok := c.evalNode(sel.X)
			if !ok || len(e.Args) != 1 {
				return specNode{}, false
			}
			if v, ok := c.constUint(e.Args[0]); ok {
				node.scope = v
			}
			return node, true
		default:
			if node, ok := c.nodes[fn]; ok {
				return node, true
			}
		}
	}
	return specNode{}, false
}

// localInit returns the initializer of a function-local variable that
// is assigned exactly once (at its := definition), nil otherwise.
func (c *checker) localInit(id *ast.Ident) ast.Expr {
	v, ok := c.pass.TypesInfo.Uses[id].(*types.Var)
	if !ok || v.IsField() {
		return nil
	}
	if c.locals == nil {
		c.buildLocals()
	}
	return c.locals[v]
}

// buildLocals indexes, across all files, locals defined by a 1:1 `:=`
// and never reassigned.
func (c *checker) buildLocals() {
	c.locals = map[*types.Var]ast.Expr{}
	assigned := map[*types.Var]int{}
	for _, f := range c.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				if ok {
					for _, lhs := range as.Lhs {
						if id, isID := lhs.(*ast.Ident); isID {
							if v, isVar := defOrUse(c.pass.TypesInfo, id).(*types.Var); isVar {
								assigned[v] += 2 // multi-value: never follow
							}
						}
					}
				}
				return true
			}
			for i, lhs := range as.Lhs {
				id, isID := lhs.(*ast.Ident)
				if !isID {
					continue
				}
				v, isVar := defOrUse(c.pass.TypesInfo, id).(*types.Var)
				if !isVar {
					continue
				}
				assigned[v]++
				if _, dup := c.locals[v]; !dup {
					c.locals[v] = as.Rhs[i]
				}
			}
			return true
		})
	}
	for v, n := range assigned {
		if n != 1 {
			delete(c.locals, v)
		}
	}
}

func defOrUse(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// ---- constants and type tests ----

func (c *checker) constString(expr ast.Expr) (string, bool) {
	tv, ok := c.pass.TypesInfo.Types[expr]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

func (c *checker) constUint(expr ast.Expr) (uint8, bool) {
	tv, ok := c.pass.TypesInfo.Types[expr]
	if !ok || tv.Value == nil {
		return 0, false
	}
	v, ok := constant.Uint64Val(constant.ToInt(tv.Value))
	if !ok {
		return 0, false
	}
	return uint8(v), true
}

func specPkg(pkg *types.Package) bool {
	return pkg != nil && (pkg.Path() == "internal/spec" || strings.HasSuffix(pkg.Path(), "/internal/spec"))
}

func corePkg(pkg *types.Package) bool {
	return pkg != nil && (pkg.Path() == "internal/core" || strings.HasSuffix(pkg.Path(), "/internal/core"))
}

func berthaPkg(pkg *types.Package) bool {
	return pkg != nil && strings.HasSuffix(pkg.Path(), "/bertha")
}

func isSpecNodeType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Node" && specPkg(named.Obj().Pkg())
}

func isSpecStackPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && named.Obj().Name() == "Stack" && specPkg(named.Obj().Pkg())
}

// calleeFunc resolves the statically-known called function.
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
