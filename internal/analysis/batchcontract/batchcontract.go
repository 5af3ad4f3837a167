// Package batchcontract checks the vectored-send ownership contract
// of the batch data plane (core.BatchConn): SendBufs consumes every
// element of the burst on every path, RecvBufs never reports delivered
// buffers alongside an error, and callers keep their hands off a burst
// once it has been handed down.
//
// Diagnostic categories:
//
//	tail-leak      an error path of a SendBufs implementation returns
//	               without a suffix-coverage event — no call consumed
//	               the unsent tail (core.ReleaseAll(bs[i:]), a whole-
//	               burst delegation, or — when the burst is proven to
//	               have one element — a single-element send)
//	sent-miscount  a path releases bs[lo:] but returns a BatchError
//	               whose Sent disagrees: Sent must equal lo (tail
//	               starts at the failed element) or lo-1 (the failed
//	               element was consumed separately)
//	recv-partial   a RecvBufs implementation returns a non-zero
//	               delivered count together with an error; the
//	               contract is all-or-nothing per call (n == 0 on
//	               error)
//	use-after-send a caller passes a whole []*wire.Buf burst to
//	               SendBufs or ReleaseAll and then reads an element,
//	               re-passes the slice, or ranges over its values;
//	               ownership of every element left with the callee
//
// The analysis is path-sensitive: each function is lowered to a CFG
// (internal/analysis/cfg) and the contract state — suffix coverage,
// the released tail's start, `len(bs) == K` and `err == nil` branch
// refinements — is driven to a fixpoint before any path is judged.
// That is what lets the single-element degradation in the UDP
// transport (`if len(bs) == 1 { ... SendBuf(ctx, bs[0]) ... }`) pass
// without annotation while a genuinely uncovered tail still fails.
//
// Element stores (bs[i] = nil), len/cap, and index-only ranges remain
// legal after a send: they touch the slice header or overwrite
// pointers, not the transferred buffers.
package batchcontract

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strconv"

	"github.com/bertha-net/bertha/internal/analysis"
	"github.com/bertha-net/bertha/internal/analysis/cfg"
)

// Analyzer is the batchcontract pass.
var Analyzer = &analysis.Analyzer{
	Name: "batchcontract",
	Doc:  "check the SendBufs/RecvBufs batch ownership contract (consume the tail on abort, honest Sent counts, no use after send)",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if bs, ok := sendBufsParam(pass, fd); ok {
				checkSendContract(pass, fd, bs)
			}
			if recvBufsShape(pass, fd) {
				checkRecvPartial(pass, fd)
			}
			checkUseAfterSend(pass, fd)
		}
	}
	return nil
}

// sendBufsParam recognizes a SendBufs implementation — a function or
// method named SendBufs whose last parameter is the []*wire.Buf burst
// and whose sole result is error — and returns the burst parameter.
func sendBufsParam(pass *analysis.Pass, fd *ast.FuncDecl) (*types.Var, bool) {
	if fd.Name.Name != "SendBufs" {
		return nil, false
	}
	ft := fd.Type
	if ft.Results == nil || len(ft.Results.List) != 1 || len(ft.Params.List) == 0 {
		return nil, false
	}
	if rt := pass.TypesInfo.TypeOf(ft.Results.List[0].Type); rt == nil || rt.String() != "error" {
		return nil, false
	}
	last := ft.Params.List[len(ft.Params.List)-1]
	if !analysis.IsBufSlice(pass.TypesInfo.TypeOf(last.Type)) || len(last.Names) == 0 {
		return nil, false
	}
	name := last.Names[len(last.Names)-1]
	if name.Name == "_" {
		return nil, false
	}
	v, ok := pass.TypesInfo.Defs[name].(*types.Var)
	return v, ok
}

// recvBufsShape recognizes a RecvBufs implementation: named RecvBufs,
// takes a []*wire.Buf, returns (int, error).
func recvBufsShape(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	if fd.Name.Name != "RecvBufs" {
		return false
	}
	ft := fd.Type
	if ft.Results == nil || len(ft.Results.List) != 2 {
		return false
	}
	for _, p := range ft.Params.List {
		if analysis.IsBufSlice(pass.TypesInfo.TypeOf(p.Type)) {
			return true
		}
	}
	return false
}

// ---- SendBufs contract (tail-leak, sent-miscount) ----

// affine is a value of the form base+off (base nil for constants),
// the shape of both ReleaseAll(bs[i+1:]) slice bounds and
// BatchError{Sent: i} counts.
type affine struct {
	base *types.Var
	off  int64
}

// cstate is the per-path contract state of one SendBufs body.
type cstate struct {
	// covered records that some call consumed the unsent suffix.
	covered bool
	// lenMax is the exact burst length proven by a len(bs)==K branch,
	// -1 when unknown; it licenses single-element coverage via bs[K-1].
	lenMax int64
	// nilErr holds error variables proven nil on this path.
	nilErr map[*types.Var]bool
	// rel is the start of the most recent ReleaseAll(bs[lo:]) suffix,
	// for auditing BatchError.Sent.
	rel      affine
	relValid bool
}

type sendCheck struct {
	pass   *analysis.Pass
	bs     *types.Var
	report bool
}

func checkSendContract(pass *analysis.Pass, fd *ast.FuncDecl, bs *types.Var) {
	a := &sendCheck{pass: pass, bs: bs}
	g := cfg.New(fd.Body)
	flow := cfg.Flow[*cstate]{
		Entry: func() *cstate { return &cstate{lenMax: -1, nilErr: map[*types.Var]bool{}} },
		Clone: cloneCState,
		Merge: mergeCState,
		Transfer: func(n ast.Node, s *cstate) {
			a.transfer(n, s)
		},
		Refine: func(cond ast.Expr, branch bool, s *cstate) {
			a.refine(cond, branch, s)
		},
	}
	in, ok := flow.Forward(g)
	if !ok {
		return
	}
	a.report = true
	for _, b := range g.Blocks {
		if !b.Live {
			continue
		}
		st := cloneCState(in[b])
		for _, n := range b.Nodes {
			if ret, isRet := n.(*ast.ReturnStmt); isRet && len(ret.Results) == 1 {
				a.transfer(ret, st) // a delegation call in the return covers the tail itself
				a.classify(ret, st)
				continue
			}
			a.transfer(n, st)
		}
	}
}

func cloneCState(s *cstate) *cstate {
	c := &cstate{covered: s.covered, lenMax: s.lenMax, rel: s.rel, relValid: s.relValid,
		nilErr: make(map[*types.Var]bool, len(s.nilErr))}
	for v := range s.nilErr {
		c.nilErr[v] = true
	}
	return c
}

// mergeCState joins src into dst: facts survive only when both paths
// agree, which keeps the lattice monotone (every field only decays).
func mergeCState(dst, src *cstate) bool {
	changed := false
	if dst.covered && !src.covered {
		dst.covered = false
		changed = true
	}
	if dst.lenMax != src.lenMax && dst.lenMax != -1 {
		dst.lenMax = -1
		changed = true
	}
	for v := range dst.nilErr {
		if !src.nilErr[v] {
			delete(dst.nilErr, v)
			changed = true
		}
	}
	if dst.relValid && (!src.relValid || dst.rel != src.rel) {
		dst.relValid = false
		changed = true
	}
	return changed
}

func (a *sendCheck) transfer(n ast.Node, s *cstate) {
	switch n := n.(type) {
	case *ast.RangeStmt:
		// Loop-head marker: only the ranged expression evaluates here.
		a.scanCalls(n.X, s)
		return
	case *ast.AssignStmt:
		a.scanCalls(n, s)
		for _, l := range n.Lhs {
			a.killVar(l, s)
		}
		return
	case *ast.IncDecStmt:
		a.scanCalls(n.X, s)
		a.killVar(n.X, s)
		return
	}
	a.scanCalls(n, s)
}

// killVar drops facts invalidated by an assignment to the variable.
func (a *sendCheck) killVar(l ast.Expr, s *cstate) {
	id, ok := ast.Unparen(l).(*ast.Ident)
	if !ok {
		return
	}
	v, ok := a.pass.TypesInfo.ObjectOf(id).(*types.Var)
	if !ok {
		return
	}
	delete(s.nilErr, v)
	if s.relValid && s.rel.base == v {
		s.relValid = false
	}
	if v == a.bs {
		s.covered, s.lenMax, s.relValid = false, -1, false
	}
}

// scanCalls applies every call inside n to the contract state.
func (a *sendCheck) scanCalls(n ast.Node, s *cstate) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		if _, isLit := x.(*ast.FuncLit); isLit {
			return false
		}
		if call, ok := x.(*ast.CallExpr); ok {
			a.call(call, s)
		}
		return true
	})
}

// call updates coverage for one call: passing the whole burst or an
// unbounded-high suffix consumes the tail; a constant element consumes
// it only when refinement proved the burst that short.
func (a *sendCheck) call(call *ast.CallExpr, s *cstate) {
	if isBuiltin(a.pass.TypesInfo, call) {
		return
	}
	release := calleeName(call) == "ReleaseAll"
	for _, arg := range call.Args {
		switch arg := ast.Unparen(arg).(type) {
		case *ast.Ident:
			if a.pass.TypesInfo.ObjectOf(arg) == a.bs {
				s.covered = true
				if release {
					s.rel, s.relValid = affine{}, true
				}
			}
		case *ast.SliceExpr:
			if !a.isBurst(arg.X) || arg.High != nil || arg.Slice3 {
				continue
			}
			s.covered = true
			if release {
				if lo, ok := a.parseAffine(arg.Low); ok {
					s.rel, s.relValid = lo, true
				} else {
					s.relValid = false
				}
			}
		case *ast.IndexExpr:
			if !a.isBurst(arg.X) {
				continue
			}
			if k, ok := constInt(a.pass.TypesInfo, arg.Index); ok && s.lenMax >= 0 && k+1 >= s.lenMax {
				s.covered = true
			}
		}
	}
}

func (a *sendCheck) isBurst(x ast.Expr) bool {
	id, ok := ast.Unparen(x).(*ast.Ident)
	return ok && a.pass.TypesInfo.ObjectOf(id) == a.bs
}

// parseAffine reads x as base+off / base-off / const / nil-low.
func (a *sendCheck) parseAffine(x ast.Expr) (affine, bool) {
	if x == nil {
		return affine{}, true
	}
	x = ast.Unparen(x)
	if k, ok := constInt(a.pass.TypesInfo, x); ok {
		return affine{off: k}, true
	}
	if id, ok := x.(*ast.Ident); ok {
		if v, ok := a.pass.TypesInfo.ObjectOf(id).(*types.Var); ok {
			return affine{base: v}, true
		}
		return affine{}, false
	}
	if bin, ok := x.(*ast.BinaryExpr); ok && (bin.Op == token.ADD || bin.Op == token.SUB) {
		id, ok := ast.Unparen(bin.X).(*ast.Ident)
		if !ok {
			return affine{}, false
		}
		v, ok := a.pass.TypesInfo.ObjectOf(id).(*types.Var)
		if !ok {
			return affine{}, false
		}
		k, ok := constInt(a.pass.TypesInfo, bin.Y)
		if !ok {
			return affine{}, false
		}
		if bin.Op == token.SUB {
			k = -k
		}
		return affine{base: v, off: k}, true
	}
	return affine{}, false
}

// refine narrows the state along a conditional edge: len(bs)==K pins
// the burst length, err==nil clears an error variable.
func (a *sendCheck) refine(cond ast.Expr, branch bool, s *cstate) {
	bin, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
		return
	}
	// The fact holds on the == true edge and the != false edge.
	holds := (bin.Op == token.EQL) == branch
	if !holds {
		return
	}
	x, y := ast.Unparen(bin.X), ast.Unparen(bin.Y)
	if k, ok := a.lenCompare(x, y); ok {
		s.lenMax = k
		if k == 0 {
			s.covered = true // an empty burst has no tail to consume
		}
		return
	}
	if k, ok := a.lenCompare(y, x); ok {
		s.lenMax = k
		if k == 0 {
			s.covered = true
		}
		return
	}
	if v, ok := nilCompare(a.pass.TypesInfo, x, y); ok {
		s.nilErr[v] = true
	} else if v, ok := nilCompare(a.pass.TypesInfo, y, x); ok {
		s.nilErr[v] = true
	}
}

// lenCompare matches len(bs) against a constant.
func (a *sendCheck) lenCompare(lenSide, constSide ast.Expr) (int64, bool) {
	call, ok := lenSide.(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return 0, false
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "len" {
		return 0, false
	}
	if !a.isBurst(call.Args[0]) {
		return 0, false
	}
	return constInt(a.pass.TypesInfo, constSide)
}

// nilCompare matches an identifier compared against nil.
func nilCompare(info *types.Info, idSide, nilSide ast.Expr) (*types.Var, bool) {
	if tv, ok := info.Types[nilSide]; !ok || !tv.IsNil() {
		return nil, false
	}
	id, ok := idSide.(*ast.Ident)
	if !ok {
		return nil, false
	}
	v, ok := info.ObjectOf(id).(*types.Var)
	return v, ok
}

// classify judges one `return X` of a SendBufs body under the path
// state accumulated up to it.
func (a *sendCheck) classify(ret *ast.ReturnStmt, s *cstate) {
	x := ast.Unparen(ret.Results[0])
	if tv, ok := a.pass.TypesInfo.Types[x]; ok && tv.IsNil() {
		return // success path: the callee transmitted everything
	}
	if id, ok := x.(*ast.Ident); ok {
		if v, ok := a.pass.TypesInfo.ObjectOf(id).(*types.Var); ok && s.nilErr[v] {
			return // refined nil: this is a success path in disguise
		}
	}
	if !s.covered {
		a.pass.Reportf(ret.Pos(), "tail-leak",
			"error path returns without consuming the unsent tail of %s; SendBufs owns every element — core.ReleaseAll the suffix (or delegate the whole burst) before returning",
			a.bs.Name())
	}
	if s.relValid {
		a.auditSent(x, s)
	}
}

// auditSent compares BatchError.Sent against the released suffix
// start lo: Sent==lo means the tail began at the failure, Sent==lo-1
// means the failed element was consumed separately; anything else
// lies to the caller about how many messages went out.
func (a *sendCheck) auditSent(x ast.Expr, s *cstate) {
	ue, ok := x.(*ast.UnaryExpr)
	if !ok || ue.Op != token.AND {
		return
	}
	cl, ok := ast.Unparen(ue.X).(*ast.CompositeLit)
	if !ok || !isBatchError(a.pass.TypesInfo, cl) {
		return
	}
	for _, el := range cl.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if key, ok := kv.Key.(*ast.Ident); !ok || key.Name != "Sent" {
			continue
		}
		sent, ok := a.parseAffine(kv.Value)
		if !ok || sent.base != s.rel.base {
			return
		}
		if diff := sent.off - s.rel.off; diff > 0 || diff < -1 {
			a.pass.Reportf(kv.Value.Pos(), "sent-miscount",
				"BatchError.Sent claims %s but the released tail starts at %s; Sent must count only transmitted messages (the tail start, or one less when the failed element was consumed separately)",
				affineString(sent), affineString(s.rel))
		}
		return
	}
}

func isBatchError(info *types.Info, cl *ast.CompositeLit) bool {
	t := info.TypeOf(cl)
	named, ok := types.Unalias(t).(*types.Named)
	return ok && named.Obj().Name() == "BatchError"
}

func affineString(a affine) string {
	switch {
	case a.base == nil:
		return strconv.FormatInt(a.off, 10)
	case a.off == 0:
		return a.base.Name()
	case a.off > 0:
		return a.base.Name() + "+" + strconv.FormatInt(a.off, 10)
	}
	return a.base.Name() + "-" + strconv.FormatInt(-a.off, 10)
}

// ---- RecvBufs contract (recv-partial) ----

// checkRecvPartial flags `return K, err` with a non-zero constant
// count and a non-nil error: the batch receive contract is
// all-or-nothing per call. Reachability comes from the CFG so dead
// returns do not count.
func checkRecvPartial(pass *analysis.Pass, fd *ast.FuncDecl) {
	dead := cfg.New(fd.Body).UnreachableSpans()
	reachable := func(p token.Pos) bool {
		for _, sp := range dead {
			if sp.Contains(p) {
				return false
			}
		}
		return true
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) != 2 || !reachable(ret.Pos()) {
			return true
		}
		k, ok := constInt(pass.TypesInfo, ret.Results[0])
		if !ok || k == 0 {
			return true
		}
		if tv, ok := pass.TypesInfo.Types[ast.Unparen(ret.Results[1])]; ok && tv.IsNil() {
			return true
		}
		pass.Reportf(ret.Pos(), "recv-partial",
			"RecvBufs returns %d delivered buffers alongside an error; the contract is all-or-nothing per call — release the bad elements, compact survivors, and return (0, err) only when nothing was delivered",
			k)
		return true
	})
}

// ---- caller side (use-after-send) ----

// ustate tracks which burst variables have been handed down on this
// path.
type ustate struct {
	sent map[*types.Var]bool
}

type useCheck struct {
	pass   *analysis.Pass
	report bool
}

func checkUseAfterSend(pass *analysis.Pass, fd *ast.FuncDecl) {
	a := &useCheck{pass: pass}
	g := cfg.New(fd.Body)
	flow := cfg.Flow[*ustate]{
		Entry: func() *ustate { return &ustate{sent: map[*types.Var]bool{}} },
		Clone: func(s *ustate) *ustate {
			c := &ustate{sent: make(map[*types.Var]bool, len(s.sent))}
			for v := range s.sent {
				c.sent[v] = true
			}
			return c
		},
		// A variable counts as sent if any path sent it: union merge.
		Merge: func(dst, src *ustate) bool {
			changed := false
			for v := range src.sent {
				if !dst.sent[v] {
					dst.sent[v] = true
					changed = true
				}
			}
			return changed
		},
		Transfer: func(n ast.Node, s *ustate) {
			a.transfer(n, s)
		},
	}
	in, ok := flow.Forward(g)
	if !ok {
		return
	}
	a.report = true
	for _, b := range g.Blocks {
		if !b.Live {
			continue
		}
		st := flow.Clone(in[b])
		for _, n := range b.Nodes {
			a.transfer(n, st)
		}
	}
}

func (a *useCheck) transfer(n ast.Node, s *ustate) {
	switch n := n.(type) {
	case *ast.RangeStmt:
		// Marker node: the ranged expression and the iteration vars.
		// An index-only range reads just the header; a value variable
		// would copy element pointers the callee already released.
		if v, sentVar := a.sentIdent(n.X, s); sentVar {
			if n.Value != nil && !isBlankExpr(n.Value) {
				a.flag(n.X.Pos(), v)
			}
		} else {
			a.scan(n.X, s)
		}
		return
	case *ast.AssignStmt:
		for _, r := range n.Rhs {
			a.scan(r, s)
		}
		for _, l := range n.Lhs {
			switch l := ast.Unparen(l).(type) {
			case *ast.Ident:
				// Rebinding forgets the old burst.
				if v, ok := a.pass.TypesInfo.ObjectOf(l).(*types.Var); ok {
					delete(s.sent, v)
				}
			case *ast.IndexExpr:
				// Element stores stay legal (nil-ing out a flushed
				// burst); only the index expression itself evaluates.
				a.scan(l.Index, s)
			default:
				a.scan(l, s)
			}
		}
		return
	}
	a.scan(n, s)
}

// scan walks an expression flagging uses of sent bursts and applying
// new send events.
func (a *useCheck) scan(n ast.Node, s *ustate) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if isBuiltin(a.pass.TypesInfo, x) {
				return false // len/cap read the header, not elements
			}
			a.callUse(x, s)
			return false // callUse walked the subtree itself
		case *ast.IndexExpr:
			if v, sentVar := a.sentIdent(x.X, s); sentVar {
				a.flag(x.Pos(), v)
			}
		case *ast.SliceExpr:
			if v, sentVar := a.sentIdent(x.X, s); sentVar {
				a.flag(x.Pos(), v)
			}
		}
		return true
	})
}

// callUse flags sent bursts re-passed to any call, then marks bursts
// consumed by this call if it is a send/release. All argument
// subtrees are walked before the marks land, so a call's own
// consuming arguments are never flagged against themselves.
func (a *useCheck) callUse(call *ast.CallExpr, s *ustate) {
	a.scan(call.Fun, s)
	name := calleeName(call)
	consumes := name == "SendBufs" || name == "ReleaseAll"
	var marks []*types.Var
	for _, arg := range call.Args {
		inner := ast.Unparen(arg)
		if id, ok := inner.(*ast.Ident); ok {
			v, ok := a.pass.TypesInfo.ObjectOf(id).(*types.Var)
			if !ok || !analysis.IsBufSlice(v.Type()) {
				continue
			}
			if s.sent[v] {
				a.flag(arg.Pos(), v)
			}
			if consumes {
				marks = append(marks, v)
			}
			continue
		}
		// A suffix argument to a consuming call (ReleaseAll(bs[i:]))
		// consumes the whole logical tail: the base counts as sent
		// afterwards.
		if sl, ok := inner.(*ast.SliceExpr); ok && consumes && sl.High == nil && !sl.Slice3 {
			if v, wasSent := a.sentIdent(sl.X, s); wasSent {
				a.flag(sl.Pos(), v)
			}
			if id, ok := ast.Unparen(sl.X).(*ast.Ident); ok {
				if v, ok := a.pass.TypesInfo.ObjectOf(id).(*types.Var); ok && analysis.IsBufSlice(v.Type()) {
					marks = append(marks, v)
					a.scan(sl.Low, s)
					continue
				}
			}
		}
		a.scan(arg, s)
	}
	for _, v := range marks {
		s.sent[v] = true
	}
}

func (a *useCheck) sentIdent(x ast.Expr, s *ustate) (*types.Var, bool) {
	id, ok := ast.Unparen(x).(*ast.Ident)
	if !ok {
		return nil, false
	}
	v, ok := a.pass.TypesInfo.ObjectOf(id).(*types.Var)
	if !ok || !s.sent[v] {
		return nil, false
	}
	return v, true
}

func (a *useCheck) flag(pos token.Pos, v *types.Var) {
	if !a.report {
		return
	}
	a.pass.Reportf(pos, "use-after-send",
		"%s was handed to the batch send path, which owns (and may already have released) every element; reading or re-passing it here races with that release",
		v.Name())
}

func isBlankExpr(x ast.Expr) bool {
	id, ok := ast.Unparen(x).(*ast.Ident)
	return ok && id.Name == "_"
}

// ---- shared helpers ----

func calleeName(call *ast.CallExpr) string {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

func isBuiltin(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

func constInt(info *types.Info, x ast.Expr) (int64, bool) {
	tv, ok := info.Types[ast.Unparen(x)]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(tv.Value)
}
