// Borrow-summary inference: learning //bertha:borrows instead of
// requiring it.
//
// A helper that only inspects a *wire.Buf parameter — logs its length,
// hashes its payload, peeks at a header — borrows it: the caller still
// owns the Buf afterward and must release it. Before inference, either
// the helper carried a //bertha:borrows annotation or the analysis
// assumed the call consumed the Buf, silently forgiving a caller that
// never released it.
//
// Inference runs the same CFG ownership dataflow the reporting pass
// uses, silently, over every function in bottom-up SCC order of the
// program's call graph (internal/analysis/callgraph): a callee's summary
// exists before any caller is summarized, so borrows chain through
// layers of helpers and across packages. A parameter is inferred
// borrowed when no exit path releases, stores, transfers, or returns
// it — ownership demonstrably never leaves the caller. Recursive (same-SCC) and statically
// unresolvable callees are assumed consuming, which errs toward the
// quieter, pre-inference behavior.
//
// Callers in every package read the same summaries, so a cross-package
// caller holds the same obligations as a local one.
package bufown

import (
	"go/ast"
	"go/types"

	"github.com/bertha-net/bertha/internal/analysis"
	"github.com/bertha-net/bertha/internal/analysis/callgraph"
	"github.com/bertha-net/bertha/internal/analysis/cfg"
)

// inferBorrows computes the program's borrowed-parameter summaries,
// keyed by function, with parameter indices counted across all
// parameters (receiver excluded).
func inferBorrows(pass *analysis.Pass, ann *analysis.Annotations, decls map[*types.Func]*ast.FuncDecl, queues map[*types.Var]bool, sinks *sinkSet) map[*types.Func]map[int]bool {
	g := callgraph.Build(pass)
	inferred := map[*types.Func]map[int]bool{}
	for _, scc := range g.SCCs() {
		for _, node := range scc {
			fd := node.Decl
			if fd.Type.Params == nil || analysis.IsWirePackage(node.Fn.Pkg()) {
				continue
			}
			hasBuf := false
			for _, field := range fd.Type.Params.List {
				for _, name := range field.Names {
					if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok && analysis.IsBufPtr(v.Type()) {
						hasBuf = true
					}
				}
			}
			if !hasBuf {
				continue
			}
			fa := &funcAnalysis{
				pass:     pass,
				ann:      ann,
				decls:    decls,
				queues:   queues,
				sinks:    sinks,
				inferred: inferred,
			}
			consumed := fa.summarizeFunc(fd)
			if consumed == nil {
				continue // fixpoint bailed or no exit reached: no summary
			}
			var borrowed map[int]bool
			idx := 0
			for _, field := range fd.Type.Params.List {
				for _, name := range field.Names {
					if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok &&
						analysis.IsBufPtr(v.Type()) && !consumed[idx] {
						if borrowed == nil {
							borrowed = map[int]bool{}
						}
						borrowed[idx] = true
					}
					idx++
				}
			}
			if borrowed != nil {
				inferred[node.Fn] = borrowed
			}
		}
	}
	return inferred
}

// summarizeFunc runs the ownership dataflow with reporting off and
// returns, per parameter index, whether any exit path consumed that
// parameter's Buf. It returns nil when the fixpoint did not converge or
// no exit was reachable — callers must then assume every parameter is
// consumed.
func (fa *funcAnalysis) summarizeFunc(fd *ast.FuncDecl) map[int]bool {
	e0 := newEnv()
	fa.bindParams(fd.Type, fd.Doc, e0)
	paramCells := map[*cell]int{}
	idx := 0
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if v, ok := fa.info().Defs[name].(*types.Var); ok {
				if c, ok := e0.vars[v]; ok {
					paramCells[c] = idx
				}
			}
			idx++
		}
	}
	if len(paramCells) == 0 {
		return map[int]bool{}
	}
	consumed := map[int]bool{}
	exited := false
	fa.summarize = func(e *env) {
		exited = true
		for c, i := range paramCells {
			switch e.state(c) {
			case stReleased, stEscaped, stMaybe:
				consumed[i] = true
			}
			if e.def[c] {
				consumed[i] = true
			}
		}
	}
	g := cfg.New(fd.Body)
	flow := &cfg.Flow[*env]{
		Entry:    func() *env { return e0.clone() },
		Clone:    func(e *env) *env { return e.clone() },
		Merge:    func(dst, src *env) bool { return dst.mergeFrom(src) },
		Transfer: func(n ast.Node, e *env) { fa.transfer(n, e) },
		Refine:   func(cond ast.Expr, branch bool, e *env) { fa.refine(cond, branch, e) },
	}
	in, ok := flow.Forward(g)
	if !ok {
		return nil
	}
	// Replay each reachable block so return statements hit the
	// summarize hook with their path's converged state.
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
	if s, ok := in[g.Exit]; ok {
		fa.exitCheck(s, fd.Body.Rbrace)
	}
	if !exited {
		return nil
	}
	return consumed
}
