// Package atomdisc checks the atomic-access discipline around the
// lock-free datapath: a field accessed through sync/atomic anywhere
// must be accessed through sync/atomic everywhere, 64-bit
// function-style atomics must hit 64-bit-aligned addresses under
// 32-bit layout rules, and structs carrying atomic state must not be
// copied by value.
//
// Diagnostic categories:
//
//	mixed-access  a field's address is passed to a sync/atomic
//	              function in one place and the field is read or
//	              written plainly in another; the plain access is a
//	              latent data race (the atomic op provides no
//	              exclusion for non-atomic readers)
//	atomic-align  a 64-bit atomic operates on a field whose offset
//	              from its allocation is not 64-bit aligned under
//	              32-bit (GOARCH=386) layout rules; such an access
//	              faults or silently tears on 32-bit platforms
//	atomic-copy   a struct that carries atomic state (a sync/atomic
//	              typed field, or a field accessed with sync/atomic
//	              functions) is copied by value — a value receiver,
//	              a by-value call argument, or an assignment from an
//	              existing value; the copy races with concurrent
//	              writers and the copied atomics are dead state
//
// Mixed access is checked across the whole program: a field whose
// address reaches sync/atomic in any package makes every plain access
// to it, in any package, a finding.
//
// //bertha:racy <why> is the escape hatch for intentional mixed
// access (for example a stats field whose readers tolerate torn
// values). On the line before (or on) a plain access it suppresses
// that site; on a field declaration it exempts the field everywhere.
//
// Creating values is fine: composite literals and zero-value var
// declarations of atomic-bearing types are not copies of live state
// and are never flagged.
package atomdisc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"github.com/bertha-net/bertha/internal/analysis"
)

// Analyzer is the atomdisc pass.
var Analyzer = &analysis.Analyzer{
	Name: "atomdisc",
	Doc:  "check atomic-access discipline: no mixed atomic/plain field access, aligned 64-bit atomics, no by-value copies of atomic-bearing structs",
	Run:  run,
}

// sizes32 computes layout under the strictest supported rules: on
// 386 the compiler only 32-bit-aligns uint64 fields, so any offset
// not divisible by 8 is a real fault on at least one port.
var sizes32 = types.SizesFor("gc", "386")

// plainSite is one non-atomic access to a tracked field.
type plainSite struct {
	pos   token.Pos
	fld   *types.Var
	write bool
}

type checker struct {
	pass *analysis.Pass
	ann  *analysis.Annotations

	// atomic holds the fields whose address the program passes to a
	// sync/atomic function.
	atomic map[*types.Var]bool

	// atomicArgs marks selector nodes inside the address argument of an
	// atomic call: they are the sanctioned access, not a plain one.
	atomicArgs map[ast.Expr]bool
	// writes marks expressions appearing as assignment targets.
	writes map[ast.Expr]bool

	plains []plainSite
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:       pass,
		ann:        analysis.CollectAnnotations(pass.Fset, pass.Files),
		atomic:     map[*types.Var]bool{},
		atomicArgs: map[ast.Expr]bool{},
		writes:     map[ast.Expr]bool{},
	}

	// Phase 1: collect atomic accesses (checking 64-bit alignment as we
	// go) and every plain field access.
	for _, f := range pass.Files {
		ast.Inspect(f, c.collect)
	}

	// Phase 2: report mixed accesses, then hunt by-value copies of
	// atomic-bearing structs.
	c.reportMixed()
	for _, f := range pass.Files {
		ast.Inspect(f, c.copyCheck)
	}
	return nil
}

// collect is the phase-1 visitor. It runs top-down, so a CallExpr is
// seen before the selectors inside its arguments — which lets the
// atomic-argument exemption land before the plain-site walk reaches
// those selectors.
func (c *checker) collect(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.CallExpr:
		if name, ok := c.atomicFn(n); ok && len(n.Args) > 0 {
			c.atomicArg(n.Args[0], name, n.Pos())
		}
	case *ast.AssignStmt:
		for _, l := range n.Lhs {
			c.writes[ast.Unparen(l)] = true
		}
	case *ast.IncDecStmt:
		c.writes[ast.Unparen(n.X)] = true
	case *ast.SelectorExpr:
		if c.atomicArgs[n] {
			return true
		}
		if fld, ok := c.fieldOf(n); ok {
			c.plains = append(c.plains, plainSite{pos: n.Pos(), fld: fld, write: c.writes[n]})
		}
	}
	return true
}

// atomicFn reports whether call is a package-level sync/atomic
// function (AddInt64, LoadUint32, CompareAndSwapInt64, ...), as
// opposed to a method of the typed atomics, and returns its name.
func (c *checker) atomicFn(call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return "", false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return "", false
	}
	return fn.Name(), true
}

// atomicArg processes the address argument of a function-style atomic:
// records the field as atomically accessed, exempts the selector chain
// from plain-site collection, and checks 64-bit alignment.
func (c *checker) atomicArg(arg ast.Expr, fnName string, callPos token.Pos) {
	addr, ok := ast.Unparen(arg).(*ast.UnaryExpr)
	if !ok || addr.Op != token.AND {
		return
	}
	sel, ok := ast.Unparen(addr.X).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fld, ok := c.fieldOf(sel)
	if !ok {
		return
	}
	ast.Inspect(sel, func(n ast.Node) bool {
		if s, ok := n.(*ast.SelectorExpr); ok {
			c.atomicArgs[s] = true
		}
		return true
	})
	c.atomic[fld] = true

	if strings.HasSuffix(fnName, "Int64") || strings.HasSuffix(fnName, "Uint64") {
		if off, known := c.chainOffset(sel); known && off%8 != 0 {
			c.pass.Reportf(callPos, "atomic-align",
				"atomic.%s on %s: field sits at offset %d under 32-bit layout, which is not 64-bit aligned — make it the first field or pad the struct",
				fnName, fieldLabel(fld), off)
		}
	}
}

// fieldOf resolves a selector to the struct field it reads or writes.
func (c *checker) fieldOf(sel *ast.SelectorExpr) (*types.Var, bool) {
	selection, ok := c.pass.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return nil, false
	}
	fld, ok := selection.Obj().(*types.Var)
	return fld, ok
}

// chainOffset returns the byte offset of the field denoted by sel from
// the start of its allocation under 32-bit layout rules. Pointer
// indirections reset the offset: the runtime 64-bit-aligns the first
// word of every allocation and every variable, so only the in-struct
// offsets between the last indirection and the field matter.
func (c *checker) chainOffset(sel *ast.SelectorExpr) (int64, bool) {
	selection, ok := c.pass.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return 0, false
	}
	var base int64
	recv := selection.Recv()
	if _, viaPtr := recv.Underlying().(*types.Pointer); !viaPtr {
		// Value chain: the base expression's own offset accumulates.
		// Non-selector bases (locals, globals, allocation results) start
		// a fresh 64-bit-aligned span, so they contribute zero.
		if inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
			if off, ok := c.chainOffset(inner); ok {
				base = off
			}
		}
	}
	t := recv
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	off := base
	for _, idx := range selection.Index() {
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return 0, false
		}
		fields := make([]*types.Var, st.NumFields())
		for i := range fields {
			fields[i] = st.Field(i)
		}
		off += sizes32.Offsetsof(fields)[idx]
		ft := st.Field(idx).Type()
		if p, ok := ft.Underlying().(*types.Pointer); ok {
			// Promotion through an embedded pointer: fresh allocation.
			off = 0
			t = p.Elem()
		} else {
			t = ft
		}
	}
	return off, true
}

// reportMixed flags every plain access to a field that is atomically
// accessed somewhere in the program.
func (c *checker) reportMixed() {
	for _, site := range c.plains {
		if !c.atomic[site.fld] {
			continue
		}
		if c.ann.RacyAt(site.pos) {
			continue
		}
		if c.racyField(site.fld) {
			continue
		}
		kind := "read"
		if site.write {
			kind = "write"
		}
		c.pass.Reportf(site.pos, "mixed-access",
			"field %s is updated with sync/atomic elsewhere; this plain %s races with those updates — use the matching atomic op or mark the field //bertha:racy <why>",
			fieldLabel(site.fld), kind)
	}
}

// racyField reports whether the field's declaration carries a
// //bertha:racy annotation.
func (c *checker) racyField(fld *types.Var) bool {
	return c.ann.RacyAt(fld.Pos())
}

// ---- atomic-copy ----

// copyCheck is the phase-2 visitor hunting by-value copies of
// atomic-bearing structs.
func (c *checker) copyCheck(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.FuncDecl:
		if n.Recv == nil || len(n.Recv.List) == 0 {
			return true
		}
		rt := c.pass.TypesInfo.TypeOf(n.Recv.List[0].Type)
		if rt == nil {
			return true
		}
		if _, isPtr := rt.Underlying().(*types.Pointer); isPtr {
			return true
		}
		if c.bearsAtomic(rt, nil) && !c.ann.RacyAt(n.Pos()) {
			c.pass.Reportf(n.Recv.List[0].Type.Pos(), "atomic-copy",
				"method %s has a value receiver, but %s carries atomic state; every call copies it and races with concurrent writers — use a pointer receiver",
				n.Name.Name, typeLabel(rt))
		}
	case *ast.AssignStmt:
		for i, rhs := range n.Rhs {
			if len(n.Lhs) == len(n.Rhs) && isBlank(n.Lhs[i]) {
				continue // `_ = x` discards, it does not copy live state
			}
			c.copySite(rhs)
		}
	case *ast.CallExpr:
		if _, isAtomic := c.atomicFn(n); isAtomic {
			return true
		}
		for _, arg := range n.Args {
			c.copySite(arg)
		}
	}
	return true
}

// copySite flags x if it reads an existing value of an atomic-bearing
// struct type by value. Fresh values — composite literals, calls,
// conversions — are not copies of shared state.
func (c *checker) copySite(x ast.Expr) {
	x = ast.Unparen(x)
	switch x.(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.StarExpr, *ast.IndexExpr:
	default:
		return
	}
	if id, ok := x.(*ast.Ident); ok && id.Name == "_" {
		return
	}
	if c.pass.TypesInfo.Types[x].IsType() {
		return // a type operand, as in new(T), names the type: no value moves
	}
	t := c.pass.TypesInfo.TypeOf(x)
	if t == nil {
		return
	}
	if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
		return
	}
	if !c.bearsAtomic(t, nil) {
		return
	}
	if c.ann.RacyAt(x.Pos()) {
		return
	}
	c.pass.Reportf(x.Pos(), "atomic-copy",
		"%s is copied by value but carries atomic state; the copy races with concurrent writers and its atomics go dead — pass a pointer",
		typeLabel(t))
}

// bearsAtomic reports whether t is a struct type carrying atomic
// state: a sync/atomic typed value (atomic.Int64, atomic.Value, ...),
// a field whose address feeds sync/atomic functions, or a value-
// embedded struct that does.
func (c *checker) bearsAtomic(t types.Type, seen map[types.Type]bool) bool {
	if named, ok := types.Unalias(t).(*types.Named); ok {
		if pkg := named.Obj().Pkg(); pkg != nil && pkg.Path() == "sync/atomic" {
			return true
		}
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	if seen == nil {
		seen = map[types.Type]bool{}
	}
	if seen[t] {
		return false
	}
	seen[t] = true
	for i := 0; i < st.NumFields(); i++ {
		fld := st.Field(i)
		if c.atomic[fld] && !c.racyField(fld) {
			return true
		}
		if c.bearsAtomic(fld.Type(), seen) {
			return true
		}
	}
	return false
}

func isBlank(x ast.Expr) bool {
	id, ok := ast.Unparen(x).(*ast.Ident)
	return ok && id.Name == "_"
}

// fieldLabel renders a field as Type.field when the declaring struct
// is a named package-scope type, else pkg.field.
func fieldLabel(fld *types.Var) string {
	if pkg := fld.Pkg(); pkg != nil {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if st.Field(i) == fld {
					return name + "." + fld.Name()
				}
			}
		}
	}
	return fld.Name()
}

// typeLabel names a type compactly for diagnostics.
func typeLabel(t types.Type) string {
	if named, ok := types.Unalias(t).(*types.Named); ok {
		return named.Obj().Name()
	}
	return fmt.Sprintf("%s", t)
}
