// Package callgraph is the call-graph library of the berthavet suite:
// one static call graph over the whole loaded program, with
// class-hierarchy devirtualization of interface-method calls against
// every named type the program declares.
//
// Three analyzers build one graph per run and ride it:
//
//   - bufown orders its summary inference bottom-up over the graph's
//     strongly connected components, so an unannotated helper's
//     transfer/borrow behavior is known before its callers are judged;
//   - lockdisc chains held-lock sets through call edges (including
//     devirtualized ones) into one lock-order graph for the program;
//   - golife follows `go wrapper()` launches through helper calls to
//     find the forever-loop at the end of the chain.
//
// Soundness caveats (documented, deliberate): calls through function
// values, reflection, and method values are not edges; interface calls
// with more than DevirtLimit implementations in the program resolve to
// no edges (analyses must stay conservative at such sites).
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"github.com/bertha-net/bertha/internal/analysis"
)

// DevirtLimit bounds interface-call devirtualization: a call site whose
// interface has more implementations in the program than this resolves
// to none (the fan-out would drown the analyses in spurious edges).
const DevirtLimit = 16

// A Graph is the call graph of the whole program under analysis.
type Graph struct {
	// Nodes holds one node per declared function with a body, in
	// source order, packages in dependency order.
	Nodes []*Node
	// ByFunc indexes nodes by their types.Func.
	ByFunc map[*types.Func]*Node

	pkgs []*types.Package
	// impls caches each interface's implementing types (nil when they
	// overflow DevirtLimit); methods caches each interface method's
	// concrete targets.
	impls   map[*types.Interface][]types.Type
	methods map[*types.Func][]*types.Func
}

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

// Build constructs the program's call graph.
func Build(pass *analysis.Pass) *Graph {
	g := &Graph{
		ByFunc:  map[*types.Func]*Node{},
		impls:   map[*types.Interface][]types.Type{},
		methods: map[*types.Func][]*types.Func{},
	}
	for _, pkg := range pass.Pkgs {
		g.pkgs = append(g.pkgs, pkg.Types)
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

// SCCs returns the graph's strongly connected components over static
// call edges, across packages, bottom-up: every component appears
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

// Devirtualize resolves an interface-method call to the concrete
// methods of every implementation the program declares. It returns nil
// when the fan-out exceeds DevirtLimit or the method is not an
// interface method.
func (g *Graph) Devirtualize(ifaceFn *types.Func) []*types.Func {
	if methods, ok := g.methods[ifaceFn]; ok {
		return methods
	}
	var methods []*types.Func
	sig, ok := ifaceFn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		if iface, ok := sig.Recv().Type().Underlying().(*types.Interface); ok {
			for _, t := range g.implementations(iface) {
				obj, _, _ := types.LookupFieldOrMethod(t, true, ifaceFn.Pkg(), ifaceFn.Name())
				if m, ok := obj.(*types.Func); ok {
					methods = append(methods, m)
				}
			}
		}
	}
	sort.Slice(methods, func(i, j int) bool { return methods[i].FullName() < methods[j].FullName() })
	g.methods[ifaceFn] = methods
	return methods
}

// implementations returns the program's named non-interface types that
// implement iface, as T or *T, or nil when more than DevirtLimit do.
func (g *Graph) implementations(iface *types.Interface) []types.Type {
	if impls, ok := g.impls[iface]; ok {
		return impls
	}
	var impls []types.Type
	for _, pkg := range g.pkgs {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue // Implements is unspecified for uninstantiated generics
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			switch {
			case types.Implements(named, iface):
				impls = append(impls, named)
			case types.Implements(types.NewPointer(named), iface):
				impls = append(impls, types.NewPointer(named))
			default:
				continue
			}
			if len(impls) > DevirtLimit {
				g.impls[iface] = nil
				return nil
			}
		}
	}
	g.impls[iface] = impls
	return impls
}
