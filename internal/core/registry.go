package core

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/bertha-net/bertha/internal/spec"
	"github.com/bertha-net/bertha/internal/wire"
)

// SelectContext carries the information a select node needs when
// negotiation resolves it to one branch: the two endpoint hosts and the
// set of chunnel types with at least one usable candidate implementation.
type SelectContext struct {
	ClientHost string
	ServerHost string
	// Available reports whether a chunnel type has at least one usable
	// candidate implementation for this connection.
	Available func(chunnelType string) bool
}

// SelectResolver picks the branch a select node takes for a connection.
// It returns the branch index. The local fast-path chunnel (Listing 1)
// registers a resolver that picks the IPC branch when both hosts match.
type SelectResolver func(args []wire.Value, branches []*spec.Stack, sctx SelectContext) (int, error)

// Registry holds the chunnel implementations available to one endpoint:
// the fallback implementations applications register at launch (Listing 5
// line 2) and any locally-known accelerated variants. It also tracks
// select resolvers and the optimizer metadata chunnel packages declare.
//
// Readers of implementations and resolvers go through a snapshot (see
// regSnapshot), rebuilt on the first read after a change, so connection
// set-up neither sorts nor locks.
//
// A Registry is safe for concurrent use.
type Registry struct {
	mu        sync.RWMutex
	impls     map[string][]Impl         // chunnel type -> implementations
	byName    map[string]Impl           // impl name -> implementation
	resolvers map[string]SelectResolver // select-node type -> resolver
	meta      map[string]TypeMeta       // chunnel type -> optimizer metadata
	fusions   map[[2]string]string      // adjacent pair -> fused type
	// snap is the snapshot of impls, byName and resolvers; nil after a
	// change until the next read rebuilds it.
	snap atomic.Pointer[regSnapshot]
}

// regSnapshot is an immutable copy of a Registry's implementations and
// select resolvers, with what negotiation derives from them computed once:
// the implementations of each type best first, the offers an endpoint
// advertises, their names, and their wire encoding (the offer block a
// ClientHello carries). A connection negotiates from the snapshot current
// when it starts; a registration after that builds a new snapshot for the
// connections after it.
type regSnapshot struct {
	byName    map[string]Impl
	impls     map[string][]Impl // sorted by descending priority, then name
	resolvers map[string]SelectResolver
	types     []string // sorted
	// offers are the endpoint's own advertisements (DiscoveryOnly
	// implementations excluded), types in order, each type best first;
	// offered holds their names, block their EncodeOffers encoding.
	offers  []ImplOffer
	offered map[string]bool
	block   []byte
	// last is the offer table most recently built against this snapshot
	// (offerTable, table).
	last atomic.Pointer[offerTable]
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		impls:     make(map[string][]Impl),
		byName:    make(map[string]Impl),
		resolvers: make(map[string]SelectResolver),
		meta:      make(map[string]TypeMeta),
		fusions:   make(map[[2]string]string),
	}
}

// Register adds an implementation. Registering two implementations with
// the same name is an error.
func (r *Registry) Register(impl Impl) error {
	info := impl.Info()
	if err := info.Validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[info.Name]; dup {
		return fmt.Errorf("core: implementation %q already registered", info.Name)
	}
	r.byName[info.Name] = impl
	r.impls[info.Type] = append(r.impls[info.Type], impl)
	r.snap.Store(nil)
	return nil
}

// MustRegister is Register, panicking on error. Intended for package-level
// registration of shipped chunnels.
func (r *Registry) MustRegister(impl Impl) {
	if err := r.Register(impl); err != nil {
		panic(err)
	}
}

// snapshot returns the current snapshot, building it if a change made
// the last one stale.
func (r *Registry) snapshot() *regSnapshot {
	if s := r.snap.Load(); s != nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s := r.snap.Load(); s != nil {
		return s
	}
	s := &regSnapshot{
		byName:    maps.Clone(r.byName),
		impls:     make(map[string][]Impl, len(r.impls)),
		resolvers: maps.Clone(r.resolvers),
		offered:   make(map[string]bool, len(r.byName)),
	}
	for t, impls := range r.impls {
		impls = slices.Clone(impls)
		slices.SortFunc(impls, func(a, b Impl) int {
			ai, bi := a.Info(), b.Info()
			if ai.Priority != bi.Priority {
				return cmp.Compare(bi.Priority, ai.Priority)
			}
			return strings.Compare(ai.Name, bi.Name)
		})
		s.impls[t] = impls
		s.types = append(s.types, t)
	}
	slices.Sort(s.types)
	for _, t := range s.types {
		for _, impl := range s.impls[t] {
			if info := impl.Info(); !info.DiscoveryOnly { // discovery-only: the operator advertises it
				s.offers = append(s.offers, OfferFromInfo(info))
				s.offered[info.Name] = true
			}
		}
	}
	enc := wire.NewEncoder(nil)
	EncodeOffers(enc, s.offers)
	s.block = enc.Bytes()
	r.snap.Store(s)
	return s
}

// Lookup returns the implementation with the given name.
func (r *Registry) Lookup(name string) (Impl, bool) {
	impl, ok := r.snapshot().byName[name]
	return impl, ok
}

// ImplsFor returns the implementations registered for a chunnel type,
// sorted by descending priority then name (deterministic).
func (r *Registry) ImplsFor(chunnelType string) []Impl {
	return slices.Clone(r.snapshot().impls[chunnelType])
}

// Types returns all chunnel types with at least one registered
// implementation, sorted.
func (r *Registry) Types() []string {
	return slices.Clone(r.snapshot().types)
}

// Fallback returns the highest-priority userspace implementation for a
// chunnel type, or ErrNoFallback. The paper requires every chunnel type to
// have a host-fallback implementation (§2); CheckFallbacks enforces this
// for a whole DAG.
func (r *Registry) Fallback(chunnelType string) (Impl, error) {
	for _, impl := range r.snapshot().impls[chunnelType] {
		if impl.Info().Location == LocUserspace {
			return impl, nil
		}
	}
	return nil, fmt.Errorf("%w: %q", ErrNoFallback, chunnelType)
}

// CheckFallbacks verifies every concrete chunnel type in the stack has a
// fallback implementation registered. Select-node combinator types are
// exempt: they resolve away during negotiation.
func (r *Registry) CheckFallbacks(s *spec.Stack) error {
	for _, t := range s.ConcreteTypes() {
		if _, err := r.Fallback(t); err != nil {
			return err
		}
	}
	return nil
}

// RegisterResolver installs the select resolver for a select-node type.
func (r *Registry) RegisterResolver(selectType string, res SelectResolver) {
	r.mu.Lock()
	r.resolvers[selectType] = res
	r.snap.Store(nil)
	r.mu.Unlock()
}

// Resolver returns the select resolver for a type; the second result is
// false when none is registered (the runtime then uses the default
// first-available-branch rule).
func (r *Registry) Resolver(selectType string) (SelectResolver, bool) {
	res, ok := r.snapshot().resolvers[selectType]
	return res, ok
}

// defaultRegistry is the process-wide registry used by the public API.
var defaultRegistry = NewRegistry()

// DefaultRegistry returns the process-wide registry. Applications
// registering fallbacks at launch (Listing 5) use this registry unless
// they construct endpoints with an explicit one.
func DefaultRegistry() *Registry { return defaultRegistry }
