// Interprocedural lock-order analysis: the module-global deadlock
// check.
//
// The per-package walker (lockdisc.go) sees each function's direct
// acquisitions. This file chains them through calls: every function
// gets a transitive acquire set (the locks it may take, directly or
// through any callee), computed bottom-up over the package call graph
// with cross-package callees resolved through LockOrderFact — the
// summary each package exports for its functions. Holding lock A while
// calling a function whose transitive set contains B is an order edge
// A→B exactly as if the acquisition were inline.
//
// Interface calls are devirtualized through the callgraph package's
// bounded CHA. A call that cannot be devirtualized in its own package
// (the interface has no visible implementations there — the
// registry/callback pattern) is exported unresolved, with the held-lock
// set at the call site; an importing package retries it against its
// richer type environment, which is where the classic two-package
// deadlock closes: pkg A holds A.mu calling an interface method, pkg B
// implements it taking B.mu, and B also calls back into A under B.mu.
//
// Cycles in the assembled edge graph are reported as "deadlock"
// diagnostics with the full witness path. A pass only reports cycles
// that use at least one edge it produced itself, so a cycle is reported
// exactly once no matter how many packages can see it; plain
// two-function inverse pairs inside one package keep the existing
// "order" category. The driver additionally assembles every
// package's exported edges into one module-global graph to catch
// cycles between sibling packages no single pass can see.
package lockdisc

import (
	"fmt"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"github.com/bertha-net/bertha/internal/analysis"
	"github.com/bertha-net/bertha/internal/analysis/callgraph"
)

// A LockCall is a call site exported unresolved: an interface-method
// call the defining package could not devirtualize, with the locks held
// around it. Importers retry it against their own type environments.
type LockCall struct {
	// CalleePkg/CalleeObj name the interface method ("Iface.Method").
	CalleePkg string
	CalleeObj string
	// Held lists the module-global lock IDs held at the call.
	Held []string
	// Caller names the calling function for witness text.
	Caller string
	// Pos is the call site as "file:line".
	Pos string
}

// A LockEdge is one order-graph edge: Second was (or may be) acquired
// while First was held.
type LockEdge struct {
	First  string
	Second string
	// Pos is the witness position as "file:line".
	Pos string
	// Why is the human-readable derivation for the diagnostic path.
	Why string
}

// A LockFunc is one function's exported summary.
type LockFunc struct {
	Obj string
	// Acquires is the transitive acquire set: module-global IDs of
	// every lock the function may take, directly or through callees.
	Acquires []string
	// Calls holds the function's unresolved interface calls.
	Calls []LockCall
}

// LockOrderFact is the per-package lock-order summary: every analyzed
// function's transitive acquires plus the order edges the package
// derived. Edges accumulate per package, not transitively — importers
// see dependency edges through their own fact closure.
type LockOrderFact struct {
	Funcs []LockFunc
	Edges []LockEdge
}

// AFact marks LockOrderFact as a fact type.
func (*LockOrderFact) AFact() {}

// funcRec is the walker's per-function record feeding the summary
// computation.
type funcRec struct {
	fn       *types.Func
	acquires map[string]token.Pos // module lock ID -> first acquisition
	calls    []callRec
}

// callRec is one recorded call site.
type callRec struct {
	callee *types.Func
	iface  bool
	held   []string // module lock IDs held at the call
	pos    token.Pos
}

// modEdge is an order edge discovered by this pass, with a real
// token.Pos for reporting.
type modEdge struct {
	first, second string
	pos           token.Pos
	why           string
	direct        bool // acquired inline rather than derived through a call
}

// interproc runs the summary computation and deadlock check after the
// walker has recorded every function. It returns the fact to export.
func (w *walker) interproc() *LockOrderFact {
	g := callgraph.Build(w.pass)
	pos := func(p token.Pos) string {
		position := w.pass.Fset.Position(p)
		return fmt.Sprintf("%s:%d", position.Filename, position.Line)
	}

	// Index local records and imported summaries.
	local := map[*types.Func]*funcRec{}
	for _, rec := range w.recs {
		if rec.fn != nil {
			local[rec.fn] = rec
		}
	}
	imported := map[string]*LockOrderFact{}
	importedFact := func(pkg *types.Package) *LockOrderFact {
		if f, ok := imported[pkg.Path()]; ok {
			return f
		}
		var fact LockOrderFact
		if !w.pass.ImportPackageFact(pkg, &fact) {
			imported[pkg.Path()] = nil
			return nil
		}
		imported[pkg.Path()] = &fact
		return &fact
	}
	factAcquires := func(fn *types.Func) []string {
		if fn.Pkg() == nil {
			return nil
		}
		fact := importedFact(fn.Pkg())
		if fact == nil {
			return nil
		}
		key := analysis.ObjectKey(fn)
		for _, lf := range fact.Funcs {
			if lf.Obj == key {
				return lf.Acquires
			}
		}
		return nil
	}

	// Transitive acquire sets: a worklist fixpoint over local records;
	// cross-package callees contribute their exported (already
	// transitive) sets, interface callees the union of their visible
	// implementations. Unresolvable callees contribute nothing — the
	// conservative direction for order edges is "no edge" plus an
	// exported retry.
	ta := map[*types.Func]map[string]bool{}
	for fn, rec := range local {
		set := map[string]bool{}
		for id := range rec.acquires {
			set[id] = true
		}
		ta[fn] = set
	}
	var calleeAcquires func(c callRec) ([]string, bool)
	calleeAcquires = func(c callRec) ([]string, bool) {
		if c.iface {
			// Zero candidates is the registry/callback pattern — the
			// implementation lives in an importer we cannot see — and
			// counts as unresolved just like a CHA overflow.
			impls := g.Devirtualize(c.callee)
			if len(impls) == 0 {
				return nil, false
			}
			var out []string
			for _, impl := range impls {
				ids, _ := calleeAcquires(callRec{callee: impl})
				out = append(out, ids...)
			}
			return out, true
		}
		if set, ok := ta[c.callee]; ok {
			ids := make([]string, 0, len(set))
			for id := range set {
				ids = append(ids, id)
			}
			return ids, true
		}
		return factAcquires(c.callee), true
	}
	for changed := true; changed; {
		changed = false
		for fn, rec := range local {
			for _, c := range rec.calls {
				ids, _ := calleeAcquires(c)
				for _, id := range ids {
					if !ta[fn][id] {
						ta[fn][id] = true
						changed = true
					}
				}
			}
		}
	}

	// Edge assembly: the pass's own edges (real positions, reportable)
	// plus dependency edges (witness strings only).
	var mine []modEdge
	mine = append(mine, w.moduleEdges...)
	var unresolved []LockCall
	for _, rec := range w.recs {
		name := "func"
		if rec.fn != nil {
			name = rec.fn.Name()
		}
		for _, c := range rec.calls {
			ids, resolved := calleeAcquires(c)
			if !resolved && len(c.held) > 0 {
				key := analysis.ObjectKey(c.callee)
				if key != "" && c.callee.Pkg() != nil {
					unresolved = append(unresolved, LockCall{
						CalleePkg: c.callee.Pkg().Path(),
						CalleeObj: key,
						Held:      append([]string(nil), c.held...),
						Caller:    name,
						Pos:       pos(c.pos),
					})
				}
				continue
			}
			for _, a := range c.held {
				for _, b := range ids {
					if a == b {
						continue
					}
					mine = append(mine, modEdge{
						first: a, second: b, pos: c.pos,
						why: fmt.Sprintf("%s holds %s and calls %s, which acquires %s",
							name, a, c.callee.Name(), b),
					})
				}
			}
		}
	}

	// Retry dependencies' unresolved interface calls against this
	// package's type environment — the cross-package closing move.
	for _, pf := range w.pass.AllPackageFacts() {
		if pf.Path == w.pass.Pkg.Path() {
			continue
		}
		fact, ok := pf.Fact.(*LockOrderFact)
		if !ok {
			continue
		}
		for _, lf := range fact.Funcs {
			for _, c := range lf.Calls {
				m := w.lookupIfaceMethod(c.CalleePkg, c.CalleeObj)
				if m == nil {
					continue
				}
				impls := g.Devirtualize(m)
				for _, impl := range impls {
					var ids []string
					if set, ok := ta[impl]; ok {
						for id := range set {
							ids = append(ids, id)
						}
					} else {
						ids = factAcquires(impl)
					}
					implPos := token.NoPos
					if n, ok := g.ByFunc[impl]; ok {
						implPos = n.Decl.Pos()
					}
					for _, a := range c.Held {
						for _, b := range ids {
							if a == b {
								continue
							}
							mine = append(mine, modEdge{
								first: a, second: b, pos: implPos,
								why: fmt.Sprintf("%s (%s) holds %s and calls %s, implemented by %s, which acquires %s",
									c.Caller, pf.Path, a, c.CalleeObj, impl.FullName(), b),
							})
						}
					}
				}
			}
		}
	}

	// Dependency edges, for cycle context.
	var theirs []LockEdge
	for _, pf := range w.pass.AllPackageFacts() {
		if pf.Path == w.pass.Pkg.Path() {
			continue
		}
		if fact, ok := pf.Fact.(*LockOrderFact); ok {
			theirs = append(theirs, fact.Edges...)
		}
	}

	w.reportCycles(mine, theirs)

	// Build the fact: per-function transitive sets, unresolved calls,
	// and this pass's edges.
	fact := &LockOrderFact{}
	for _, rec := range w.recs {
		if rec.fn == nil {
			continue
		}
		key := analysis.ObjectKey(rec.fn)
		if key == "" {
			continue
		}
		set := ta[rec.fn]
		if len(set) == 0 {
			continue
		}
		ids := make([]string, 0, len(set))
		for id := range set {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		lf := LockFunc{Obj: key, Acquires: ids}
		for _, c := range unresolved {
			if c.Caller == rec.fn.Name() {
				lf.Calls = append(lf.Calls, c)
			}
		}
		fact.Funcs = append(fact.Funcs, lf)
	}
	sort.Slice(fact.Funcs, func(i, j int) bool { return fact.Funcs[i].Obj < fact.Funcs[j].Obj })
	seenEdge := map[[2]string]bool{}
	for _, e := range mine {
		k := [2]string{e.first, e.second}
		if seenEdge[k] {
			continue
		}
		seenEdge[k] = true
		fact.Edges = append(fact.Edges, LockEdge{First: e.first, Second: e.second, Pos: pos(e.pos), Why: e.why})
	}
	sort.Slice(fact.Edges, func(i, j int) bool {
		if fact.Edges[i].First != fact.Edges[j].First {
			return fact.Edges[i].First < fact.Edges[j].First
		}
		return fact.Edges[i].Second < fact.Edges[j].Second
	})
	if len(fact.Funcs) == 0 && len(fact.Edges) == 0 {
		return nil
	}
	return fact
}

// lookupIfaceMethod resolves an exported (pkg, "Iface.Method") ref back
// to the interface method object through the import closure.
func (w *walker) lookupIfaceMethod(pkgPath, obj string) *types.Func {
	dot := strings.IndexByte(obj, '.')
	if dot < 0 {
		return nil
	}
	typeName, methName := obj[:dot], obj[dot+1:]
	var pkg *types.Package
	if w.pass.Pkg.Path() == pkgPath {
		pkg = w.pass.Pkg
	}
	seen := map[string]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		for _, imp := range p.Imports() {
			if seen[imp.Path()] || pkg != nil {
				continue
			}
			seen[imp.Path()] = true
			if imp.Path() == pkgPath {
				pkg = imp
				return
			}
			walk(imp)
		}
	}
	walk(w.pass.Pkg)
	if pkg == nil {
		return nil
	}
	tn, ok := pkg.Scope().Lookup(typeName).(*types.TypeName)
	if !ok {
		return nil
	}
	if _, isIface := tn.Type().Underlying().(*types.Interface); !isIface {
		return nil
	}
	m, _, _ := types.LookupFieldOrMethod(tn.Type(), true, pkg, methName)
	fn, _ := m.(*types.Func)
	return fn
}

// reportCycles finds lock-order cycles in the combined edge graph and
// reports each cycle that uses at least one of this pass's own edges —
// the ownership rule that makes every cycle report exactly once across
// the module. Two-edge cycles made of two direct local edges are left
// to the classic "order" check.
func (w *walker) reportCycles(mine []modEdge, theirs []LockEdge) {
	adj := map[string]map[string]edgeInfo{}
	add := func(a, b string, info edgeInfo) {
		if adj[a] == nil {
			adj[a] = map[string]edgeInfo{}
		}
		if _, ok := adj[a][b]; !ok {
			adj[a][b] = info
		}
	}
	for _, e := range theirs {
		add(e.First, e.Second, edgeInfo{why: e.Why})
	}
	for _, e := range mine {
		add(e.first, e.second, edgeInfo{why: e.why, direct: e.direct, local: true, pos: e.pos})
	}
	reported := map[string]bool{}
	for _, e := range mine {
		// Find a path back from e.second to e.first; with edge e that is
		// a cycle this pass owns.
		path := shortestPath(adj, e.second, e.first)
		if path == nil {
			continue
		}
		cycle := append([]string{e.first}, path...)
		// Canonical key: rotate to the smallest node.
		canon := canonicalCycle(cycle[:len(cycle)-1])
		if reported[canon] {
			continue
		}
		reported[canon] = true
		info := adj[e.first][e.second]
		if len(cycle) == 3 { // A -> B -> A
			back := adj[e.second][e.first]
			if info.direct && back.direct && back.local {
				continue // the intra-package "order" check owns this pair
			}
		}
		var whys []string
		for i := 0; i+1 < len(cycle); i++ {
			whys = append(whys, adj[cycle[i]][cycle[i+1]].why)
		}
		w.pass.Reportf(e.pos, "deadlock",
			"lock-order cycle %s: %s; a concurrent interleaving of these paths deadlocks",
			strings.Join(cycle, " -> "), strings.Join(whys, "; "))
	}
}

// edgeInfo carries one order edge's provenance through cycle search.
type edgeInfo struct {
	why    string
	direct bool
	local  bool
	pos    token.Pos
}

// shortestPath returns the node sequence from src to dst (inclusive of
// both, src first) or nil when unreachable.
func shortestPath(adj map[string]map[string]edgeInfo, src, dst string) []string {
	prev := map[string]string{src: src}
	queue := []string{src}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n == dst {
			var path []string
			for at := dst; ; at = prev[at] {
				path = append([]string{at}, path...)
				if at == src {
					return path
				}
			}
		}
		var nexts []string
		for m := range adj[n] {
			if _, seen := prev[m]; !seen {
				nexts = append(nexts, m)
			}
		}
		sort.Strings(nexts)
		for _, m := range nexts {
			prev[m] = n
			queue = append(queue, m)
		}
	}
	return nil
}

// canonicalCycle renders a cycle's nodes rotated to start at the
// lexicographically smallest, for dedup.
func canonicalCycle(nodes []string) string {
	if len(nodes) == 0 {
		return ""
	}
	min := 0
	for i, n := range nodes {
		if n < nodes[min] {
			min = i
		}
	}
	out := append(append([]string(nil), nodes[min:]...), nodes[:min]...)
	return strings.Join(out, "->")
}
