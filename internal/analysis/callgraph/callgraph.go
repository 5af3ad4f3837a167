// Package callgraph builds a module-wide static call graph for the
// berthavet suite: class-hierarchy analysis over static calls, plus
// bounded devirtualization of interface-method calls (core.BufConn /
// core.BatchConn and any other module-declared interface) against the
// named types visible in the analyzed package's import closure.
//
// The graph is the reusable layer the interprocedural analyzers ride:
//
//   - bufown orders its summary inference bottom-up over the graph's
//     strongly connected components, so an unannotated helper's
//     transfer/borrow behavior is known before its callers are judged;
//   - lockdisc chains held-lock sets through call edges (including
//     devirtualized ones) to build the module-global lock-order graph;
//   - golife follows `go wrapper()` launches through helper calls to
//     find the forever-loop at the end of the chain.
//
// Per package, the analyzer exports a CallGraphFact so importers can
// walk a dependency's edges without re-analyzing it — the facts model
// of golang.org/x/tools/go/analysis, applied to the graph itself.
//
// Soundness caveats (documented, deliberate): calls through function
// values, reflection, and method values are not edges; interface calls
// whose visible implementation count exceeds DevirtLimit resolve to no
// edges (analyses must stay conservative at such sites).
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"github.com/bertha-net/bertha/internal/analysis"
)

// DevirtLimit bounds interface-call devirtualization: a call site whose
// interface has more visible implementations than this resolves to none
// (the fan-out would drown the analyses in spurious edges).
const DevirtLimit = 16

// A Ref addresses a function across packages: the package's import path
// plus the object key ("F" or "T.M") the fact store uses.
type Ref struct {
	Pkg string
	Obj string
}

// A CallEdge is one call site recorded in a CallGraphFact.
type CallEdge struct {
	// Callee is the target: a concrete function, or — when Iface is
	// set — the interface method the call goes through.
	Callee Ref
	// Iface marks a call through an interface method; consumers
	// devirtualize it against the implementations they can see.
	Iface bool
	// Go marks a `go` launch rather than a plain call.
	Go bool
	// Pos is the call site as "file:line".
	Pos string
}

// A FuncInfo is one function's outgoing edges in a CallGraphFact.
type FuncInfo struct {
	Obj   string
	Calls []CallEdge
}

// CallGraphFact is the per-package fact: every declared function's
// statically resolvable outgoing calls.
type CallGraphFact struct {
	Funcs []FuncInfo
}

// AFact marks CallGraphFact as a fact type.
func (*CallGraphFact) AFact() {}

// Analyzer builds and exports the package's call graph. It runs first
// in the suite so same-package analyzers can import the fact the same
// way importers do.
var Analyzer = &analysis.Analyzer{
	Name: "callgraph",
	Doc:  "build the module call graph (static calls + bounded interface devirtualization) and export it as a fact",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	g := Build(pass)
	fact := &CallGraphFact{}
	for _, n := range g.Nodes {
		fi := FuncInfo{Obj: analysis.ObjectKey(n.Fn)}
		if fi.Obj == "" {
			continue
		}
		for _, s := range n.Sites {
			callee := s.Callee
			if callee.Pkg() == nil {
				continue
			}
			obj := analysis.ObjectKey(callee)
			if obj == "" {
				continue
			}
			pos := pass.Fset.Position(s.Pos)
			fi.Calls = append(fi.Calls, CallEdge{
				Callee: Ref{Pkg: callee.Pkg().Path(), Obj: obj},
				Iface:  s.Iface,
				Go:     s.Go,
				Pos:    pos.Filename + ":" + itoa(pos.Line),
			})
		}
		fact.Funcs = append(fact.Funcs, fi)
	}
	sort.Slice(fact.Funcs, func(i, j int) bool { return fact.Funcs[i].Obj < fact.Funcs[j].Obj })
	pass.ExportPackageFact(fact)
	return nil
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// A Graph is the in-memory call graph of one package under analysis.
type Graph struct {
	// Nodes holds one node per declared function with a body, in
	// source order.
	Nodes []*Node
	// ByFunc indexes nodes by their types.Func.
	ByFunc map[*types.Func]*Node

	pass       *Pass
	implCache  map[*types.Interface][]*types.Func
	implNumber map[*types.Interface]bool
}

// Pass is the subset of analysis.Pass the builder needs — an interface
// so tests can drive the builder without a full pass.
type Pass = analysis.Pass

// A Node is one declared function and its outgoing call sites.
type Node struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	// Sites are the function's call sites, in source order, including
	// calls made inside function literals declared in its body (the
	// literal runs with the function's obligations for our analyses).
	Sites []*Site
}

// A Site is one call.
type Site struct {
	// Callee is the static target, or the interface method for an
	// interface call.
	Callee *types.Func
	Iface  bool
	Go     bool
	Pos    token.Pos
	// Call is the call expression itself.
	Call *ast.CallExpr
}

// Build constructs the package's call graph.
func Build(pass *analysis.Pass) *Graph {
	g := &Graph{
		ByFunc:     map[*types.Func]*Node{},
		pass:       pass,
		implCache:  map[*types.Interface][]*types.Func{},
		implNumber: map[*types.Interface]bool{},
	}
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
			n := &Node{Fn: fn, Decl: fd}
			collectSites(pass.TypesInfo, fd.Body, false, &n.Sites)
			g.Nodes = append(g.Nodes, n)
			g.ByFunc[fn] = n
		}
	}
	return g
}

// collectSites walks a body collecting call sites. inGo marks nodes
// syntactically inside a `go` call expression's function position.
func collectSites(info *types.Info, body ast.Node, inGo bool, out *[]*Site) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			if s := classify(info, n.Call); s != nil {
				s.Go = true
				*out = append(*out, s)
			}
			// Arguments and nested literals still execute / get called.
			for _, a := range n.Call.Args {
				collectSites(info, a, false, out)
			}
			if fl, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				collectSites(info, fl.Body, false, out)
			}
			return false
		case *ast.CallExpr:
			if s := classify(info, n); s != nil {
				*out = append(*out, s)
			}
			return true
		}
		return true
	})
}

// classify resolves one call expression to a site, or nil when the
// callee is not statically addressable (func value, builtin, etc.).
func classify(info *types.Info, call *ast.CallExpr) *Site {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return &Site{Callee: fn, Pos: call.Pos(), Call: call}
		}
	case *ast.SelectorExpr:
		fn, ok := info.Uses[fun.Sel].(*types.Func)
		if !ok {
			return nil
		}
		iface := false
		if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			recv := sel.Recv()
			if _, isIface := recv.Underlying().(*types.Interface); isIface {
				iface = true
			}
		}
		return &Site{Callee: fn, Iface: iface, Pos: call.Pos(), Call: call}
	}
	return nil
}

// SCCs returns the graph's strongly connected components over
// same-package static call edges, bottom-up: every component appears
// after the components it calls into. This is the order summary
// inference wants — callees are summarized before their callers.
func (g *Graph) SCCs() [][]*Node {
	// Tarjan. Emission order (root-finished) is reverse-topological on
	// the condensation, i.e. callees first.
	index := map[*Node]int{}
	low := map[*Node]int{}
	onStack := map[*Node]bool{}
	var stack []*Node
	var sccs [][]*Node
	next := 0
	var strong func(v *Node)
	strong = func(v *Node) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, s := range v.Sites {
			w, ok := g.ByFunc[s.Callee]
			if !ok {
				continue
			}
			if _, seen := index[w]; !seen {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []*Node
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, comp)
		}
	}
	for _, n := range g.Nodes {
		if _, seen := index[n]; !seen {
			strong(n)
		}
	}
	return sccs
}

// Devirtualize resolves an interface-method call site to the concrete
// methods of every implementation visible from the pass: named types of
// the package under analysis plus those of the module (and testdata)
// packages in its import closure. It returns nil when the fan-out
// exceeds DevirtLimit or the method is not an interface method.
func (g *Graph) Devirtualize(ifaceFn *types.Func) []*types.Func {
	sig, ok := ifaceFn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	if impls, ok := g.implCache[iface]; ok {
		if g.implNumber[iface] {
			return lookupMethods(impls, ifaceFn)
		}
		return nil
	}
	var implTypes []types.Type
	overflow := false
	consider := func(obj types.Object) {
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			return
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			return
		}
		if _, isIface := named.Underlying().(*types.Interface); isIface {
			return
		}
		if types.Implements(named, iface) {
			implTypes = append(implTypes, named)
		} else if types.Implements(types.NewPointer(named), iface) {
			implTypes = append(implTypes, types.NewPointer(named))
		} else {
			return
		}
		if len(implTypes) > DevirtLimit {
			overflow = true
		}
	}
	scan := func(pkg *types.Package) {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			consider(scope.Lookup(name))
			if overflow {
				return
			}
		}
	}
	scan(g.pass.Pkg)
	seen := map[string]bool{g.pass.Pkg.Path(): true}
	var walk func(pkg *types.Package)
	walk = func(pkg *types.Package) {
		for _, imp := range pkg.Imports() {
			if seen[imp.Path()] || overflow {
				continue
			}
			seen[imp.Path()] = true
			if moduleLike(imp.Path()) {
				scan(imp)
			}
			walk(imp)
		}
	}
	walk(g.pass.Pkg)
	if overflow {
		g.implNumber[iface] = false
		g.implCache[iface] = nil
		return nil
	}
	// Cache the concrete method funcs for this interface.
	var methods []*types.Func
	for _, t := range implTypes {
		obj, _, _ := types.LookupFieldOrMethod(t, true, ifaceFn.Pkg(), ifaceFn.Name())
		if m, ok := obj.(*types.Func); ok {
			methods = append(methods, m)
		}
	}
	sort.Slice(methods, func(i, j int) bool { return methods[i].FullName() < methods[j].FullName() })
	g.implNumber[iface] = true
	g.implCache[iface] = methods
	return lookupMethods(methods, ifaceFn)
}

func lookupMethods(methods []*types.Func, ifaceFn *types.Func) []*types.Func {
	out := make([]*types.Func, 0, len(methods))
	for _, m := range methods {
		if m.Name() == ifaceFn.Name() {
			out = append(out, m)
		}
	}
	return out
}

// moduleLike reports whether an import path belongs to the analyzed
// module or a testdata corpus rather than the standard library: module
// paths carry a dot in their first segment, corpora use the synthesized
// "testdata/" prefix. Devirtualization only scans these — conn
// implementations live in the module, and walking every stdlib scope
// would be pure overhead.
func moduleLike(path string) bool {
	first := path
	if i := strings.IndexByte(path, '/'); i >= 0 {
		first = path[:i]
	}
	return strings.Contains(first, ".") || first == "testdata" || first == "internal"
}
