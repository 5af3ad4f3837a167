// Package analysis is a dependency-free re-implementation of the core of
// golang.org/x/tools/go/analysis, sized for this repository: an Analyzer
// is a named check, a Pass is one run of it over the whole loaded
// program, and diagnostics carry a category so golden tests and CI can
// assert on the exact rule that fired.
//
// The program is checked as one unit (internal/analysis/load), so an
// analyzer sees every package at once, dependencies first, and keeps
// what it learns about one package's functions and fields — borrowed
// parameters, blocking calls, lock acquisitions — in plain maps keyed by
// the *types.Func or *types.Var, which are the same pointers in every
// package that mentions them.
//
// The suite exists because the zero-copy data plane (internal/wire,
// core.BufConn) is governed by conventions the compiler cannot see:
// linear Buf ownership, declared SendOverhead bounds, and no blocking
// conn calls under a mutex. The analyzers in the sub-packages (bufown,
// overhead, lockdisc) prove those conventions at build time; cmd/berthavet
// is the multichecker that runs them over the module in one process.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"

	"github.com/bertha-net/bertha/internal/analysis/load"
)

// SuiteRevision identifies the vet-suite rule set. Bump it whenever an
// analyzer's diagnostics change so `berthavet -version` reflects the
// rules in force.
const SuiteRevision = "berthavet-2026.10.1"

// An Analyzer describes one static check.
type Analyzer struct {
	// Name is the analyzer's command-line and diagnostic prefix, e.g.
	// "bufown".
	Name string
	// Doc is the one-paragraph description shown by -help.
	Doc string
	// Run applies the analyzer to the whole program, once.
	Run func(*Pass) error
}

// A Diagnostic is one finding.
type Diagnostic struct {
	// Pos is where the finding anchors.
	Pos token.Pos
	// Analyzer is the reporting analyzer's name.
	Analyzer string
	// Category names the specific rule, e.g. "use-after-release".
	Category string
	// Message is the human-readable finding.
	Message string
}

// A Pass is one analyzer run over the whole program.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Pkgs are the packages under analysis, each after the packages it
	// imports.
	Pkgs []*load.Package
	// Files are the files of every package, in Pkgs order.
	Files []*ast.File
	// TypesInfo holds the type information of every package.
	TypesInfo *types.Info

	diags   []Diagnostic
	ignores map[string]map[int]bool // filename -> line -> suppressed (built lazily)
}

// Reportf records a diagnostic unless a //berthavet:ignore directive
// suppresses it on that line.
func (p *Pass) Reportf(pos token.Pos, category, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.suppressed(position.Filename, position.Line) {
		return
	}
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Category: category,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostics returns the findings recorded so far, in file/line order.
func (p *Pass) Diagnostics() []Diagnostic {
	sort.SliceStable(p.diags, func(i, j int) bool {
		pi, pj := p.Fset.Position(p.diags[i].Pos), p.Fset.Position(p.diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
	return p.diags
}

// suppressed reports whether a //berthavet:ignore directive on the given
// line names this analyzer (or "all").
func (p *Pass) suppressed(filename string, line int) bool {
	if p.ignores == nil {
		p.ignores = map[string]map[int]bool{}
		for _, f := range p.Files {
			tf := p.Fset.File(f.Pos())
			if tf == nil {
				continue
			}
			lines := map[int]bool{}
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, "//berthavet:ignore")
					if !ok {
						continue
					}
					names := strings.Fields(rest)
					match := len(names) == 0
					for _, n := range names {
						if n == p.Analyzer.Name || n == "all" {
							match = true
						}
					}
					if match {
						lines[p.Fset.Position(c.Pos()).Line] = true
					}
				}
			}
			p.ignores[tf.Name()] = lines
		}
	}
	return p.ignores[filename][line]
}

// Run applies an analyzer to packages checked together by one
// load.Loader, given dependencies first, and returns its diagnostics.
func Run(a *Analyzer, pkgs []*load.Package) ([]Diagnostic, error) {
	pass := &Pass{Analyzer: a, Pkgs: pkgs}
	if len(pkgs) > 0 {
		pass.Fset, pass.TypesInfo = pkgs[0].Fset, pkgs[0].Info
	}
	for _, pkg := range pkgs {
		pass.Files = append(pass.Files, pkg.Files...)
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	return pass.Diagnostics(), nil
}

// ---- type recognition helpers shared by the analyzers ----

// wirePkg reports whether pkg is the repository's internal/wire package
// (matched by path suffix so forks and testdata loads both qualify).
func wirePkg(pkg *types.Package) bool {
	return pkg != nil && (pkg.Path() == "internal/wire" || strings.HasSuffix(pkg.Path(), "/internal/wire"))
}

// corePkg reports whether pkg is the repository's internal/core package.
func corePkg(pkg *types.Package) bool {
	return pkg != nil && (pkg.Path() == "internal/core" || strings.HasSuffix(pkg.Path(), "/internal/core"))
}

// IsWirePackage reports whether the package under analysis is
// internal/wire itself (whose Buf methods implement, rather than obey,
// the ownership discipline).
func IsWirePackage(pkg *types.Package) bool { return wirePkg(pkg) }

// IsBufPtr reports whether t is *wire.Buf.
func IsBufPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Buf" && wirePkg(obj.Pkg())
}

// IsBufSlice reports whether t is []*wire.Buf — the burst type the
// batch data plane moves through SendBufs/RecvBufs.
func IsBufSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	return ok && IsBufPtr(sl.Elem())
}

// IsBufSlotSlice reports whether t is a slice of slot structs carrying
// a *wire.Buf field — the SPSC/MPSC ring shape, where each element
// pairs a buffer with its slot bookkeeping (sequence numbers). A
// //bertha:queue annotation on such a field sanctions stores into the
// element's Buf field the same way it sanctions stores into a
// []*wire.Buf element.
func IsBufSlotSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	st, ok := sl.Elem().Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if IsBufPtr(st.Field(i).Type()) {
			return true
		}
	}
	return false
}

// IsImplInfo reports whether t is core.ImplInfo.
func IsImplInfo(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "ImplInfo" && corePkg(obj.Pkg())
}

// IsContext reports whether t is context.Context.
func IsContext(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// ConnMethodNames are the blocking data-plane calls of core.Conn /
// core.BufConn / core.BatchConn that lockdisc guards and bufown treats
// as ownership transfer points.
var ConnMethodNames = map[string]bool{
	"Send": true, "Recv": true, "SendBuf": true, "RecvBuf": true,
	"SendBufs": true, "RecvBufs": true,
}

// ConnCallName classifies a call expression as a data-plane conn call:
// a method named Send/Recv/SendBuf/RecvBuf (or the batch variants
// SendBufs/RecvBufs) whose first parameter is a context.Context, or the
// package helpers core.SendBuf / core.RecvBuf / core.SendBufs /
// core.RecvBufs. It returns the display name ("conn.SendBuf",
// "core.RecvBufs") and true when the call matches.
func ConnCallName(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	name := sel.Sel.Name
	if !ConnMethodNames[name] {
		return "", false
	}
	obj := info.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() == 0 || !IsContext(sig.Params().At(0).Type()) {
		return "", false
	}
	if sig.Recv() == nil {
		// Package-level helper: only the core send/recv helpers qualify.
		if corePkg(fn.Pkg()) && (name == "SendBuf" || name == "RecvBuf" ||
			name == "SendBufs" || name == "RecvBufs") {
			return "core." + name, true
		}
		return "", false
	}
	return "conn." + name, true
}

// ---- //bertha: annotations ----

// Annotations is the per-file index of //bertha: directives.
//
//	//bertha:owns b      (func doc)  parameter b is owned by the callee [default]
//	//bertha:borrows b   (func doc)  parameter b is borrowed: the callee must
//	                                 not release it and callers keep ownership
//	//bertha:transfers   (stmt line) ownership intentionally leaves this
//	                                 function at this statement
//	//bertha:overhead N  (stmt line or func doc) bound, in bytes, for a
//	                                 prepend the analyzer cannot fold to a
//	                                 constant
//	//bertha:daemon why  (stmt line) the goroutine launched here is an
//	                                 intentional process-lifetime daemon
//	                                 with no shutdown edge
//	//bertha:queue why   (struct field) the []*wire.Buf field is a send
//	                                 queue: stores into and appends onto
//	                                 it are sanctioned ownership
//	                                 transfers, with release deferred to
//	                                 the draining code
//	//bertha:racy why    (stmt line or struct field) the mixed
//	                                 atomic/plain access here (or to this
//	                                 field) is intentional — e.g. a field
//	                                 written plainly before the struct is
//	                                 published, or a stats snapshot that
//	                                 tolerates tearing
type Annotations struct {
	fset *token.FileSet
	// transfers, overheads, daemons, queues, and racys are keyed by
	// "file:line".
	transfers map[string]bool
	overheads map[string]int
	daemons   map[string]bool
	queues    map[string]bool
	racys     map[string]bool
}

// CollectAnnotations indexes every //bertha: comment in the files.
func CollectAnnotations(fset *token.FileSet, files []*ast.File) *Annotations {
	a := &Annotations{fset: fset, transfers: map[string]bool{}, overheads: map[string]int{}, daemons: map[string]bool{}, queues: map[string]bool{}, racys: map[string]bool{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//bertha:")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				// Register under the comment's own line (trailing form)
				// and the next line (directive-above-statement form).
				keys := []string{
					pos.Filename + ":" + strconv.Itoa(pos.Line),
					pos.Filename + ":" + strconv.Itoa(pos.Line+1),
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue
				}
				switch fields[0] {
				case "transfers":
					for _, key := range keys {
						a.transfers[key] = true
					}
				case "daemon":
					for _, key := range keys {
						a.daemons[key] = true
					}
				case "queue":
					for _, key := range keys {
						a.queues[key] = true
					}
				case "racy":
					for _, key := range keys {
						a.racys[key] = true
					}
				case "overhead":
					if len(fields) > 1 {
						if n, err := strconv.Atoi(fields[1]); err == nil {
							for _, key := range keys {
								a.overheads[key] = n
							}
						}
					}
				}
			}
		}
	}
	return a
}

func (a *Annotations) key(pos token.Pos) string {
	p := a.fset.Position(pos)
	return p.Filename + ":" + strconv.Itoa(p.Line)
}

// TransfersAt reports whether a //bertha:transfers directive covers the
// line containing pos.
func (a *Annotations) TransfersAt(pos token.Pos) bool { return a.transfers[a.key(pos)] }

// OverheadAt returns the declared byte bound on the line containing pos.
func (a *Annotations) OverheadAt(pos token.Pos) (int, bool) {
	n, ok := a.overheads[a.key(pos)]
	return n, ok
}

// DaemonAt reports whether a //bertha:daemon directive covers the line
// containing pos.
func (a *Annotations) DaemonAt(pos token.Pos) bool { return a.daemons[a.key(pos)] }

// QueueAt reports whether a //bertha:queue directive covers the line
// containing pos (a struct-field declaration).
func (a *Annotations) QueueAt(pos token.Pos) bool { return a.queues[a.key(pos)] }

// RacyAt reports whether a //bertha:racy directive covers the line
// containing pos — either an access site or a struct-field declaration.
func (a *Annotations) RacyAt(pos token.Pos) bool { return a.racys[a.key(pos)] }

// FuncDirective scans a function's doc comment for a //bertha:<verb>
// directive naming ident (e.g. verb "borrows", ident "b").
func FuncDirective(doc *ast.CommentGroup, verb, ident string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		rest, ok := strings.CutPrefix(c.Text, "//bertha:"+verb)
		if !ok {
			continue
		}
		for _, f := range strings.Fields(rest) {
			if f == ident {
				return true
			}
		}
	}
	return false
}

// FuncOverhead scans a function's doc comment for //bertha:overhead N.
func FuncOverhead(doc *ast.CommentGroup) (int, bool) {
	if doc == nil {
		return 0, false
	}
	for _, c := range doc.List {
		rest, ok := strings.CutPrefix(c.Text, "//bertha:overhead")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) > 0 {
			if n, err := strconv.Atoi(fields[0]); err == nil {
				return n, true
			}
		}
	}
	return 0, false
}
