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
// The evaluator follows constants, single-assignment locals, and —
// via facts — functions that return a constant-shaped Node or Stack:
// analyzing internal/chunnels/reliable exports a NodeFact for
// reliable.Node, so bertha.Reliable() (which returns it) earns one
// too, and a stack built from bertha helpers in an example package
// evaluates fully. Registrations travel the same way: a RegistryFact
// per package records the ImplInfo literals and resolver registrations
// it contains, and a sink package consults every fact in its import
// closure.
package speccheck

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"

	"github.com/bertha-net/bertha/internal/analysis"
)

// SpecNode is the serializable shape of one evaluated DAG node.
type SpecNode struct {
	// Known is false for nodes the evaluator could not resolve; such
	// nodes are skipped by every check rather than guessed at.
	Known bool
	// Type is the chunnel type name ("" only when unknown or defective).
	Type string
	// Scope is the numeric spec.Scope constraint (0 = ScopeAny).
	Scope uint8
	// Select marks a branching node; Branches holds its alternatives.
	Select   bool
	Branches []SpecStack
}

// SpecStack is the serializable shape of an evaluated stack.
type SpecStack struct {
	Nodes []SpecNode
}

// NodeFact marks a function that returns a constant-shaped spec.Node.
type NodeFact struct{ Node SpecNode }

// AFact marks NodeFact as a fact type.
func (*NodeFact) AFact() {}

// StackFact marks a function that returns a constant-shaped *spec.Stack.
type StackFact struct{ Stack SpecStack }

// AFact marks StackFact as a fact type.
func (*StackFact) AFact() {}

// RegImpl records one registered implementation: its chunnel type and
// numeric core.Location.
type RegImpl struct {
	Type     string
	Location uint8
}

// RegistryFact is the package fact summarizing the chunnel
// implementations (core.ImplInfo literals) and select resolvers
// (RegisterResolver calls) a package contributes to the registry.
type RegistryFact struct {
	Impls   []RegImpl
	Selects []string
}

// AFact marks RegistryFact as a fact type.
func (*RegistryFact) AFact() {}

// maxDepth mirrors spec.MaxDepth, the runtime bound on select nesting.
const maxDepth = 8

// Analyzer is the speccheck pass.
var Analyzer = &analysis.Analyzer{
	Name: "speccheck",
	Doc:  "evaluate Chunnel DAG construction against the registered implementations and their scopes",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	c := &checker{pass: pass}
	c.exportRegistry()
	c.exportBuilders()
	c.loadRegistry()
	for _, f := range pass.Files {
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
	return nil
}

type checker struct {
	pass    *analysis.Pass
	impls   map[string][]uint8 // chunnel type -> registered locations
	selects map[string]bool    // select types with a resolver
	// locals caches, per enclosing function, the single-assignment
	// local variable initializers the evaluator may follow.
	locals map[*types.Var]ast.Expr
}

// ---- registry knowledge ----

// exportRegistry scans this package for core.ImplInfo composite
// literals and RegisterResolver calls and exports them as the package's
// RegistryFact.
func (c *checker) exportRegistry() {
	var fact RegistryFact
	for _, f := range c.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				tv, ok := c.pass.TypesInfo.Types[n]
				if !ok || !analysis.IsImplInfo(tv.Type) {
					return true
				}
				impl := RegImpl{}
				known := false
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
							impl.Type, known = s, true
						}
					case "Location":
						if v, ok := c.constUint(kv.Value); ok {
							impl.Location = v
						}
					}
				}
				if known && impl.Type != "" {
					fact.Impls = append(fact.Impls, impl)
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "RegisterResolver" || len(n.Args) < 1 {
					return true
				}
				if s, ok := c.constString(n.Args[0]); ok && s != "" {
					fact.Selects = append(fact.Selects, s)
				}
			}
			return true
		})
	}
	if len(fact.Impls) > 0 || len(fact.Selects) > 0 {
		c.pass.ExportPackageFact(&fact)
	}
}

// loadRegistry merges this package's registrations with every
// RegistryFact in the import closure.
func (c *checker) loadRegistry() {
	c.impls = map[string][]uint8{}
	c.selects = map[string]bool{}
	add := func(fact *RegistryFact) {
		for _, impl := range fact.Impls {
			c.impls[impl.Type] = append(c.impls[impl.Type], impl.Location)
		}
		for _, s := range fact.Selects {
			c.selects[s] = true
		}
	}
	var own RegistryFact
	if c.pass.ImportPackageFact(c.pass.Pkg, &own) {
		add(&own)
	}
	for _, pf := range c.pass.AllPackageFacts() {
		if pf.Path == c.pass.Pkg.Path() {
			continue
		}
		if rf, ok := pf.Fact.(*RegistryFact); ok {
			add(rf)
		}
	}
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

// ---- builder facts ----

// exportBuilders records a NodeFact/StackFact for each function in this
// package whose body returns a constant-shaped spec.Node or *spec.Stack,
// iterating to a fixpoint so helpers that call other local helpers
// resolve too.
func (c *checker) exportBuilders() {
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
				var have NodeFact
				if c.pass.ImportObjectFact(b.fn, &have) {
					continue
				}
				if node, ok := c.evalNode(b.ret); ok && node.Known {
					c.pass.ExportObjectFact(b.fn, &NodeFact{Node: node})
					changed = true
				}
			case isSpecStackPtr(rt):
				var have StackFact
				if c.pass.ImportObjectFact(b.fn, &have) {
					continue
				}
				if st, ok := c.evalStack(b.ret); ok {
					c.pass.ExportObjectFact(b.fn, &StackFact{Stack: *st})
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
			if st, ok := c.evalStack(b); ok && len(st.Nodes) == 0 {
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
func (c *checker) checkStack(at ast.Expr, st *SpecStack, depth int, optimized bool) {
	if depth > maxDepth {
		c.pass.Reportf(at.Pos(), "too-deep",
			"select nesting exceeds spec.MaxDepth (%d); Validate will reject this stack", maxDepth)
		return
	}
	seen := map[string]bool{}
	for _, n := range st.Nodes {
		if !n.Known || n.Type == "" {
			continue
		}
		if !optimized && seen[n.Type] {
			c.pass.Reportf(at.Pos(), "dup-type",
				"chunnel type %q appears twice in one sequence; enable the optimizer or drop the duplicate", n.Type)
		}
		seen[n.Type] = true
		if len(c.impls) == 0 {
			continue // no registry knowledge loaded: stay silent
		}
		locs, registered := c.impls[n.Type]
		if n.Select {
			if !c.selects[n.Type] && !registered {
				c.pass.Reportf(at.Pos(), "unknown-type",
					"select type %q has no registered resolver", n.Type)
			}
		} else if !registered {
			c.pass.Reportf(at.Pos(), "unknown-type",
				"chunnel type %q has no registered implementation", n.Type)
		}
		if registered && n.Scope != 0 {
			any := false
			for _, loc := range locs {
				if allowedBy(loc, n.Scope) {
					any = true
					break
				}
			}
			if !any {
				c.pass.Reportf(at.Pos(), "scope",
					"scope constraint on %q excludes every registered implementation's location", n.Type)
			}
		}
		for i := range n.Branches {
			c.checkStack(at, &n.Branches[i], depth+1, optimized)
		}
	}
}

// ---- the evaluator ----

// evalStack resolves expr to a stack shape when it is built from Seq /
// Wrap / a single-assignment local / a fact-known builder call.
func (c *checker) evalStack(expr ast.Expr) (*SpecStack, bool) {
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
			st := &SpecStack{}
			for _, a := range e.Args {
				node, ok := c.evalNode(a)
				if !ok {
					node = SpecNode{} // keep position, mark unknown
				}
				st.Nodes = append(st.Nodes, node)
			}
			return st, true
		}
		var sf StackFact
		if c.pass.ImportObjectFact(fn, &sf) {
			return &sf.Stack, true
		}
	}
	return nil, false
}

// evalNode resolves expr to a node shape: spec.New / spec.Select /
// bertha.Select / Node.WithScope / a fact-known builder call.
func (c *checker) evalNode(expr ast.Expr) (SpecNode, bool) {
	expr = ast.Unparen(expr)
	switch e := expr.(type) {
	case *ast.Ident:
		if init := c.localInit(e); init != nil {
			return c.evalNode(init)
		}
	case *ast.CallExpr:
		fn := calleeFunc(c.pass.TypesInfo, e)
		if fn == nil || e.Ellipsis.IsValid() {
			return SpecNode{}, false
		}
		switch {
		case fn.Name() == "New" && specPkg(fn.Pkg()) && len(e.Args) >= 1:
			typ, ok := c.constString(e.Args[0])
			if !ok {
				return SpecNode{}, false
			}
			return SpecNode{Known: true, Type: typ}, true
		case fn.Name() == "Select" && (specPkg(fn.Pkg()) || berthaPkg(fn.Pkg())) && len(e.Args) >= 1:
			typ, ok := c.constString(e.Args[0])
			if !ok {
				return SpecNode{}, false
			}
			node := SpecNode{Known: true, Type: typ, Select: true}
			branches := e.Args[1:]
			if specPkg(fn.Pkg()) && len(e.Args) >= 2 {
				branches = e.Args[2:] // skip the args parameter
			}
			for _, b := range branches {
				if st, ok := c.evalStack(b); ok {
					node.Branches = append(node.Branches, *st)
				} else {
					node.Branches = append(node.Branches, SpecStack{Nodes: []SpecNode{{}}})
				}
			}
			return node, true
		case fn.Name() == "WithScope" && specPkg(fn.Pkg()):
			sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr)
			if !ok {
				return SpecNode{}, false
			}
			node, ok := c.evalNode(sel.X)
			if !ok || len(e.Args) != 1 {
				return SpecNode{}, false
			}
			if v, ok := c.constUint(e.Args[0]); ok {
				node.Scope = v
			}
			return node, true
		default:
			var nf NodeFact
			if c.pass.ImportObjectFact(fn, &nf) {
				return nf.Node, true
			}
		}
	}
	return SpecNode{}, false
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
