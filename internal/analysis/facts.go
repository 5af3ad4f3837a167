// Facts: the cross-package memory of the berthavet suite.
//
// An analyzer running over package P may record a Fact about one of P's
// objects (a function, usually) or about P itself. When another package
// later imports P, the analyzers running over the importer can consult
// those facts instead of bailing at the package boundary — a caller in
// internal/chunnels can know that a transport function blocks without
// consuming a context, borrows its Buf parameter, or prepends a bounded
// number of bytes.
//
// Facts never leave the process: the driver analyzes packages in
// dependency order and threads one in-memory FactStore through every
// pass, mirroring the fact model of golang.org/x/tools/go/analysis.
//
// Objects are addressed by (package path, object key), where the key is
// "F" for a package-level function or "T.M" for a method — the only
// object shapes the suite records facts about.
package analysis

import (
	"go/types"
	"reflect"
	"sort"
	"sync"
)

// A Fact is a property of an object or package, produced by one
// analyzer and consumed by later runs over importing packages.
// Implementations must be pointers to structs.
type Fact interface {
	// AFact marks the type as a fact.
	AFact()
}

// ObjectKey renders the stable cross-package address of an object:
// "F" for a package-level func/var, "T.M" for a method (pointer and
// value receivers collapse to the same key). It returns "" for objects
// the fact system does not address (locals, imported aliases, etc.).
func ObjectKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		sig, ok := fn.Type().(*types.Signature)
		if ok && sig.Recv() != nil {
			t := sig.Recv().Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				return ""
			}
			return named.Obj().Name() + "." + fn.Name()
		}
		return fn.Name()
	}
	// Package-level objects other than functions are addressable by
	// plain name; anything in a local scope is not.
	if obj.Parent() == obj.Pkg().Scope() {
		return obj.Name()
	}
	return ""
}

// factKey addresses one fact: the analyzer that produced it, the
// package it describes, and the object key ("" for a package fact).
type factKey struct {
	Analyzer string
	Pkg      string
	Obj      string
}

// A FactStore holds every fact known to one driver invocation. It is
// shared across analyzers and packages within a run and is safe for
// concurrent use: the parallel driver analyzes independent
// packages of one dependency wave on separate goroutines, each reading
// its dependencies' facts and writing its own.
type FactStore struct {
	mu sync.RWMutex
	m  map[factKey]Fact
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{m: map[factKey]Fact{}}
}

func (s *FactStore) put(k factKey, f Fact) {
	s.mu.Lock()
	s.m[k] = f
	s.mu.Unlock()
}

// get copies the stored fact for k into dst when one of the same
// concrete type exists.
func (s *FactStore) get(k factKey, dst Fact) bool {
	s.mu.RLock()
	f, ok := s.m[k]
	s.mu.RUnlock()
	if !ok {
		return false
	}
	dv, fv := reflect.ValueOf(dst), reflect.ValueOf(f)
	if dv.Type() != fv.Type() || dv.Kind() != reflect.Pointer {
		return false
	}
	dv.Elem().Set(fv.Elem())
	return true
}

// PackageFact pairs a fact with the package it describes, for
// AllPackageFacts listings.
type PackageFact struct {
	Path string
	Fact Fact
}

// allPackageFacts returns every package-level fact recorded by the
// named analyzer for any package in paths, sorted by path for
// deterministic diagnostics.
func (s *FactStore) allPackageFacts(analyzer string, paths map[string]bool) []PackageFact {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []PackageFact
	for k, f := range s.m {
		if k.Analyzer == analyzer && k.Obj == "" && paths[k.Pkg] {
			out = append(out, PackageFact{Path: k.Pkg, Fact: f})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// ModulePackageFacts returns every package-level fact the named
// analyzer exported for any package in the store, regardless of import
// relationships. This is the driver's module-global view,
// used for whole-module checks (like sibling-package lock-order cycles)
// that no single per-package pass can see.
func (s *FactStore) ModulePackageFacts(analyzer string) []PackageFact {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []PackageFact
	for k, f := range s.m {
		if k.Analyzer == analyzer && k.Obj == "" {
			out = append(out, PackageFact{Path: k.Pkg, Fact: f})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// ---- Pass-level fact API ----

// ExportObjectFact records a fact about an object of the package under
// analysis. Objects outside the pass's package are rejected: a pass may
// only describe its own package.
func (p *Pass) ExportObjectFact(obj types.Object, f Fact) {
	if p.Facts == nil || obj == nil || obj.Pkg() != p.Pkg {
		return
	}
	key := ObjectKey(obj)
	if key == "" {
		return
	}
	p.Facts.put(factKey{Analyzer: p.Analyzer.Name, Pkg: p.Pkg.Path(), Obj: key}, f)
}

// ImportObjectFact copies into f the fact of f's concrete type recorded
// by this analyzer about obj — an object of any package whose facts are
// in the store. It reports whether such a fact existed.
func (p *Pass) ImportObjectFact(obj types.Object, f Fact) bool {
	if p.Facts == nil || obj == nil || obj.Pkg() == nil {
		return false
	}
	key := ObjectKey(obj)
	if key == "" {
		return false
	}
	return p.Facts.get(factKey{Analyzer: p.Analyzer.Name, Pkg: obj.Pkg().Path(), Obj: key}, f)
}

// ExportPackageFact records a fact about the package under analysis.
func (p *Pass) ExportPackageFact(f Fact) {
	if p.Facts == nil {
		return
	}
	p.Facts.put(factKey{Analyzer: p.Analyzer.Name, Pkg: p.Pkg.Path()}, f)
}

// ImportPackageFact copies into f this analyzer's fact about pkg.
func (p *Pass) ImportPackageFact(pkg *types.Package, f Fact) bool {
	if p.Facts == nil || pkg == nil {
		return false
	}
	return p.Facts.get(factKey{Analyzer: p.Analyzer.Name, Pkg: pkg.Path()}, f)
}

// AllPackageFacts returns this analyzer's package facts for every
// package in the transitive import closure of the package under
// analysis (including itself): a pass only sees facts of packages it
// imports, directly or transitively, so its verdict does not depend on
// which unrelated packages happened to be analyzed first.
func (p *Pass) AllPackageFacts() []PackageFact {
	if p.Facts == nil {
		return nil
	}
	paths := map[string]bool{p.Pkg.Path(): true}
	var walk func(pkg *types.Package)
	walk = func(pkg *types.Package) {
		for _, imp := range pkg.Imports() {
			if !paths[imp.Path()] {
				paths[imp.Path()] = true
				walk(imp)
			}
		}
	}
	walk(p.Pkg)
	return p.Facts.allPackageFacts(p.Analyzer.Name, paths)
}
