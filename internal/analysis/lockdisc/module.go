// Module-global deadlock assembly: the driver-side completion of the
// interprocedural lock-order check.
//
// Per-package passes report every cycle some pass can see whole — its
// own edges plus its dependencies' (interproc.go). What no pass can see
// is a cycle split between sibling packages: pkg A orders X before Y,
// pkg B orders Y before X, and neither imports the other. Both edge
// sets still reach the driver's shared fact store, so after
// the last package the driver hands every exported LockOrderFact to
// ModuleDeadlocks, which assembles the one module-global order graph
// and reports exactly the cycles the per-package ownership rule let
// through.
package lockdisc

import (
	"fmt"
	"sort"
	"strings"

	"github.com/bertha-net/bertha/internal/analysis"
)

// A ModuleFinding is one driver-level deadlock candidate: a lock-order
// cycle assembled from several packages' exported edges.
type ModuleFinding struct {
	// Pos is the witness position of one cycle edge as "file:line"
	// (the form LockEdge carries); it may be empty for edges derived
	// without a local position.
	Pos string
	// Message is the full diagnostic text with the witness path.
	Message string
}

// moduleEdgeRec is one exported edge plus every package that owns it.
type moduleEdgeRec struct {
	LockEdge
	owners []string
}

// ModuleDeadlocks assembles every package's exported lock-order edges
// into one graph and returns the cycles no per-package pass reported.
// sees(a, b) reports whether package a's analysis saw package b's facts
// (b == a or a imports b transitively); a cycle is skipped when some
// single package sees the owners of all its edges — that package's own
// pass already reported it.
func ModuleDeadlocks(facts []analysis.PackageFact, sees func(a, b string) bool) []ModuleFinding {
	edges := map[[2]string]*moduleEdgeRec{}
	var viewers []string
	for _, pf := range facts {
		fact, ok := pf.Fact.(*LockOrderFact)
		if !ok {
			continue
		}
		viewers = append(viewers, pf.Path)
		for _, e := range fact.Edges {
			k := [2]string{e.First, e.Second}
			rec, ok := edges[k]
			if !ok {
				rec = &moduleEdgeRec{LockEdge: e}
				edges[k] = rec
			}
			rec.owners = append(rec.owners, pf.Path)
		}
	}
	adj := map[string]map[string]edgeInfo{}
	for k, rec := range edges {
		if adj[k[0]] == nil {
			adj[k[0]] = map[string]edgeInfo{}
		}
		adj[k[0]][k[1]] = edgeInfo{why: rec.Why}
	}

	var keys [][2]string
	for k := range edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})

	var findings []ModuleFinding
	reported := map[string]bool{}
	for _, k := range keys {
		path := shortestPath(adj, k[1], k[0])
		if path == nil {
			continue
		}
		cycle := append([]string{k[0]}, path...)
		canon := canonicalCycle(cycle[:len(cycle)-1])
		if reported[canon] {
			continue
		}
		reported[canon] = true
		// Skip cycles some single pass saw whole: for each candidate
		// viewer, every cycle edge must have at least one owner the
		// viewer's analysis imported facts from.
		cycleEdges := make([][2]string, 0, len(cycle)-1)
		for i := 0; i+1 < len(cycle); i++ {
			cycleEdges = append(cycleEdges, [2]string{cycle[i], cycle[i+1]})
		}
		seen := false
		for _, v := range viewers {
			all := true
			for _, ck := range cycleEdges {
				ok := false
				for _, owner := range edges[ck].owners {
					if sees(v, owner) {
						ok = true
						break
					}
				}
				if !ok {
					all = false
					break
				}
			}
			if all {
				seen = true
				break
			}
		}
		if seen {
			continue
		}
		var whys []string
		for _, ck := range cycleEdges {
			whys = append(whys, edges[ck].Why)
		}
		findings = append(findings, ModuleFinding{
			Pos: edges[cycleEdges[0]].Pos,
			Message: fmt.Sprintf(
				"lock-order cycle %s: %s; a concurrent interleaving of these paths deadlocks",
				strings.Join(cycle, " -> "), strings.Join(whys, "; ")),
		})
	}
	return findings
}
