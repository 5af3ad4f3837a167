// Interprocedural lock-order analysis: the program-wide deadlock check.
//
// The walker (lockdisc.go) sees each function's direct acquisitions.
// This file chains them through calls: every function gets a transitive
// acquire set (the locks it may take, directly or through any callee),
// computed by one fixpoint over the program's call graph. Holding lock A
// while calling a function whose transitive set contains B is an order
// edge A→B exactly as if the acquisition were inline. A `go` launch
// under a lock adds no edge: the goroutine runs without the caller's
// locks.
//
// Interface calls are devirtualized through the callgraph package's
// bounded CHA against every type in the program, which is where the
// classic two-package deadlock closes: pkg A holds A.mu calling an
// interface method, pkg B implements it taking B.mu, and B also calls
// back into A under B.mu.
//
// One cycle search over the assembled edge graph reports each cycle
// once, as a "deadlock" diagnostic with the full witness path, whether
// its edges live in one package, in a package and its importer, or in
// sibling packages that never import each other. A two-edge cycle made
// of two direct acquisitions in one package keeps the intra-package
// "order" category.
package lockdisc

import (
	"fmt"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"github.com/bertha-net/bertha/internal/analysis/callgraph"
)

// funcRec is the walker's per-function record feeding the summary
// computation.
type funcRec struct {
	fn       *types.Func
	acquires map[string]token.Pos // lock ID -> first acquisition
	calls    []callRec
}

// callRec is one recorded call site.
type callRec struct {
	callee *types.Func
	iface  bool
	held   []string // lock IDs held at the call
	pos    token.Pos
}

// lockEdge is one order-graph edge: second was (or may be) acquired
// while first was held.
type lockEdge struct {
	first, second string
	pos           token.Pos
	// why is the human-readable derivation for the diagnostic path.
	why string
	// direct is the package of an inline acquisition, nil for an edge
	// derived through a call.
	direct *types.Package
}

// deadlocks computes the transitive acquire sets, assembles the
// program's lock-order graph, and reports its cycles.
func (w *walker) deadlocks() {
	g := callgraph.Build(w.pass)
	// targets resolves a call to the functions it may run: the static
	// callee, or every implementation of an interface method. An
	// unresolvable interface call contributes no edge — the conservative
	// direction for lock order.
	targets := func(c callRec) []*types.Func {
		if c.iface {
			return g.Devirtualize(c.callee)
		}
		return []*types.Func{c.callee}
	}

	// Transitive acquire sets: a worklist fixpoint over every declared
	// function.
	ta := map[*types.Func]map[string]bool{}
	for _, rec := range w.recs {
		if rec.fn == nil {
			continue
		}
		set := map[string]bool{}
		for id := range rec.acquires {
			set[id] = true
		}
		ta[rec.fn] = set
	}
	for changed := true; changed; {
		changed = false
		for _, rec := range w.recs {
			if rec.fn == nil {
				continue
			}
			for _, c := range rec.calls {
				for _, t := range targets(c) {
					for id := range ta[t] {
						if !ta[rec.fn][id] {
							ta[rec.fn][id] = true
							changed = true
						}
					}
				}
			}
		}
	}

	// Edge assembly: inline acquisitions, then every call made with
	// locks held against what its targets acquire.
	edges := append([]lockEdge(nil), w.directEdges...)
	for _, rec := range w.recs {
		name := "func"
		if rec.fn != nil {
			name = rec.fn.Name()
		}
		for _, c := range rec.calls {
			if len(c.held) == 0 {
				continue
			}
			for _, t := range targets(c) {
				callee := c.callee.Name()
				if c.iface {
					callee += ", implemented by " + t.FullName()
				}
				ids := make([]string, 0, len(ta[t]))
				for id := range ta[t] {
					ids = append(ids, id)
				}
				sort.Strings(ids)
				for _, a := range c.held {
					for _, b := range ids {
						if a != b {
							edges = append(edges, lockEdge{first: a, second: b, pos: c.pos,
								why: fmt.Sprintf("%s holds %s and calls %s, which acquires %s", name, a, callee, b)})
						}
					}
				}
			}
		}
	}
	w.reportCycles(edges)
}

// reportCycles finds the lock-order cycles in the edge graph and reports
// each once, at the first of its edges in edge order. Two-edge cycles
// made of two direct acquisitions in one package are left to the
// "order" check.
func (w *walker) reportCycles(edges []lockEdge) {
	adj := map[string]map[string]lockEdge{}
	for _, e := range edges {
		if adj[e.first] == nil {
			adj[e.first] = map[string]lockEdge{}
		}
		if _, ok := adj[e.first][e.second]; !ok {
			adj[e.first][e.second] = e
		}
	}
	reported := map[string]bool{}
	for _, e := range edges {
		// A path back from e.second to e.first closes a cycle with e.
		path := shortestPath(adj, e.second, e.first)
		if path == nil {
			continue
		}
		cycle := append([]string{e.first}, path...)
		canon := canonicalCycle(cycle[:len(cycle)-1])
		if reported[canon] {
			continue
		}
		reported[canon] = true
		if len(cycle) == 3 { // A -> B -> A
			there, back := adj[e.first][e.second], adj[e.second][e.first]
			if there.direct != nil && there.direct == back.direct {
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

// shortestPath returns the node sequence from src to dst (inclusive of
// both, src first) or nil when unreachable.
func shortestPath(adj map[string]map[string]lockEdge, src, dst string) []string {
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
