// Sink-field inference: learning the //bertha:transfers sites instead
// of annotating them.
//
// The production pattern behind almost every transfers annotation is
// the same: an owned *wire.Buf is parked in a longer-lived struct field
// — a reassembly map, a pending-retransmit map, a per-peer channel —
// and a drain path elsewhere in the program takes it back out and
// releases it. The store is not a leak; it is the hand-off to the
// drain. This file infers those fields directly:
//
//  1. Candidate fields are struct fields whose type can hold Bufs:
//     chan *wire.Buf, map[K]*wire.Buf, map[K][]*wire.Buf, []*wire.Buf.
//  2. A candidate is "drained" when the program reads Bufs back out of
//     it: a channel receive `<-x.f`, a `range x.f`, or an rvalue index
//     read `x.f[k]` (an index on the left of `=` is a store, not a
//     drain).
//  3. Drained-ness propagates across wired fields: when one local
//     value is stored into several candidate fields (the pipe pattern
//     — `ab := make(chan *wire.Buf); x.send, y.recv = ab, ab`), the
//     fields are unioned, so a send-side field with no local receive
//     inherits the drain witness of the receive-side field it shares a
//     channel with.
//
// Stores into inferred sink fields are sanctioned ownership transfers,
// exactly as if annotated: the drain path owns the release. The
// inference runs over the whole program, so a store in one package is
// sanctioned by a drain in another. The deliberate trust is
// the same one //bertha:queue makes: the analysis believes the drain
// path releases what it takes out — it verifies the hand-off, not the
// drain.
package bufown

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/bertha-net/bertha/internal/analysis"
)

// sinkCandidateType reports whether a struct field of type t can park
// Bufs for a later drain.
func sinkCandidateType(t types.Type) bool {
	switch t := t.Underlying().(type) {
	case *types.Chan:
		return analysis.IsBufPtr(t.Elem())
	case *types.Map:
		return analysis.IsBufPtr(t.Elem()) || analysis.IsBufSlice(t.Elem())
	case *types.Slice:
		return analysis.IsBufPtr(t.Elem())
	}
	return false
}

// sinkSet is the program's inferred sink fields.
type sinkSet struct {
	info   *types.Info
	fields map[*types.Var]bool
}

// isSinkSel reports whether x selects an inferred sink field.
func (ss *sinkSet) isSinkSel(x ast.Expr) bool {
	sel, ok := ast.Unparen(x).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	v, ok := ss.info.Uses[sel.Sel].(*types.Var)
	return ok && ss.fields[v]
}

// collectSinks infers the sink fields declared in files.
func collectSinks(info *types.Info, files []*ast.File) *sinkSet {
	// 1. Candidate fields.
	candidates := map[*types.Var]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					if v, ok := info.Defs[name].(*types.Var); ok && sinkCandidateType(v.Type()) {
						candidates[v] = true
					}
				}
			}
			return true
		})
	}
	ss := &sinkSet{info: info, fields: map[*types.Var]bool{}}
	if len(candidates) == 0 {
		return ss
	}

	fieldOf := func(x ast.Expr) *types.Var {
		sel, ok := ast.Unparen(x).(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		if v, ok := info.Uses[sel.Sel].(*types.Var); ok && candidates[v] {
			return v
		}
		return nil
	}
	localVar := func(x ast.Expr) *types.Var {
		id, ok := ast.Unparen(x).(*ast.Ident)
		if !ok {
			return nil
		}
		var v *types.Var
		if dv, ok := info.Defs[id].(*types.Var); ok {
			v = dv
		} else if uv, ok := info.Uses[id].(*types.Var); ok {
			v = uv
		}
		if v == nil || v.IsField() {
			return nil
		}
		return v
	}

	// 2 & 3. One pre-order walk finds drain witnesses and wiring. The
	// AssignStmt case runs before its children, so index stores are
	// known before the IndexExpr case asks.
	drained := map[*types.Var]bool{}
	varFields := map[*types.Var][]*types.Var{}
	for _, f := range files {
		stores := map[*ast.IndexExpr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
						stores[ix] = true
					}
				}
				if len(n.Lhs) == len(n.Rhs) {
					for i, lhs := range n.Lhs {
						fv := fieldOf(lhs)
						if fv == nil {
							continue
						}
						if lv := localVar(n.Rhs[i]); lv != nil {
							varFields[lv] = append(varFields[lv], fv)
						}
					}
				}
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					if fv := fieldOf(n.X); fv != nil {
						drained[fv] = true
					}
				}
			case *ast.RangeStmt:
				if fv := fieldOf(n.X); fv != nil {
					drained[fv] = true
				}
			case *ast.IndexExpr:
				if !stores[n] {
					if fv := fieldOf(n.X); fv != nil {
						drained[fv] = true
					}
				}
			case *ast.CompositeLit:
				for _, el := range n.Elts {
					kv, ok := el.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					kid, ok := kv.Key.(*ast.Ident)
					if !ok {
						continue
					}
					fv, ok := info.Uses[kid].(*types.Var)
					if !ok || !candidates[fv] {
						continue
					}
					if lv := localVar(kv.Value); lv != nil {
						varFields[lv] = append(varFields[lv], fv)
					}
				}
			}
			return true
		})
	}

	// Union fields wired through a shared local value; propagate drain
	// witnesses to every member of a union.
	parent := map[*types.Var]*types.Var{}
	var find func(v *types.Var) *types.Var
	find = func(v *types.Var) *types.Var {
		p, ok := parent[v]
		if !ok || p == v {
			return v
		}
		r := find(p)
		parent[v] = r
		return r
	}
	union := func(a, b *types.Var) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, fields := range varFields {
		for _, fv := range fields[1:] {
			union(fields[0], fv)
		}
	}
	rootDrained := map[*types.Var]bool{}
	for v := range drained {
		rootDrained[find(v)] = true
	}

	for v := range candidates {
		if rootDrained[find(v)] {
			ss.fields[v] = true
		}
	}
	return ss
}
