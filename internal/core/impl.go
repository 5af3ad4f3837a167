package core

import (
	"context"
	"fmt"
	"sync"

	"github.com/bertha-net/bertha/internal/spec"
	"github.com/bertha-net/bertha/internal/wire"
)

// Location identifies where an implementation executes (Table 1 "Offload"
// vs "Fallback Impl."). Locations are ordered roughly by distance from the
// application; the default policy prefers locations closer to the wire.
type Location uint8

// Location values.
const (
	// LocUserspace is ordinary host software inside the application
	// process — every fallback implementation lives here.
	LocUserspace Location = iota
	// LocKernel is the host kernel datapath (the XDP analog).
	LocKernel
	// LocSmartNIC is an on-server NIC offload.
	LocSmartNIC
	// LocSwitch is an in-network programmable switch.
	LocSwitch
)

// String returns the location's name.
func (l Location) String() string {
	switch l {
	case LocUserspace:
		return "userspace"
	case LocKernel:
		return "kernel"
	case LocSmartNIC:
		return "smartnic"
	case LocSwitch:
		return "switch"
	default:
		return fmt.Sprintf("Location(%d)", uint8(l))
	}
}

// Offloaded reports whether the location is an accelerated (non-userspace)
// placement.
func (l Location) Offloaded() bool { return l != LocUserspace }

// AllowedBy reports whether a chunnel constrained to scope s may be placed
// at this location.
func (l Location) AllowedBy(s spec.Scope) bool {
	switch s {
	case spec.ScopeAny, spec.ScopeGlobal, spec.ScopeLocalNet:
		return true
	case spec.ScopeHost:
		return l != LocSwitch
	case spec.ScopeApplication:
		return l == LocUserspace
	default:
		return false
	}
}

// Resources describes an implementation's resource requirements (§4.2:
// implementations provide "a function that returns an implementation
// priority and set of resource requirements"). Units are abstract: the
// discovery service tracks per-offload capacity in the same units.
type Resources struct {
	// TableEntries is the number of match-action or map entries required
	// (switch tables, XDP map slots).
	TableEntries uint32
	// Bandwidth is the reserved bandwidth share in abstract units.
	Bandwidth uint32
}

// IsZero reports whether no resources are required.
func (r Resources) IsZero() bool { return r == Resources{} }

// Encode appends the resource requirements.
func (r Resources) Encode(e *wire.Encoder) {
	e.PutUvarint(uint64(r.TableEntries))
	e.PutUvarint(uint64(r.Bandwidth))
}

// DecodeResources reads resource requirements.
func DecodeResources(d *wire.Decoder) Resources {
	return Resources{
		TableEntries: uint32(d.Uvarint()),
		Bandwidth:    uint32(d.Uvarint()),
	}
}

// ImplInfo describes a chunnel implementation for registration and
// negotiation.
type ImplInfo struct {
	// Name uniquely identifies the implementation, conventionally
	// "<type>/<variant>", e.g. "shard/xdp".
	Name string
	// Type is the chunnel type implemented, e.g. "shard".
	Type string
	// Scope is the narrowest scope under which this implementation may
	// still be used; e.g. a same-host IPC implementation declares
	// ScopeHost (§4.2 "a Chunnel can only be implemented on the same host
	// as an application").
	Scope spec.Scope
	// Endpoint declares which endpoints must run this implementation
	// (§4.2, e.g. endpoints::Both for reliability).
	Endpoint spec.Endpoint
	// Priority orders candidate implementations; higher is preferred.
	// Convention: 0–9 fallback, 10–19 optimized software, 20–29 kernel
	// datapath / kernel bypass, 30+ hardware.
	Priority int
	// Location is where the implementation executes.
	Location Location
	// Resources are the requirements claimed from discovery when the
	// implementation is selected.
	Resources Resources
	// DiscoveryOnly marks implementations that are registered locally so
	// the runtime can instantiate them, but advertised exclusively
	// through the discovery service by an operator (§4.2). They are
	// omitted from the endpoint's own negotiation offers: whether a
	// connection may use them is the operator's decision, made by
	// registering (or withdrawing) the advertisement.
	DiscoveryOnly bool
}

// Validate checks the descriptor for structural problems.
func (i ImplInfo) Validate() error {
	if i.Name == "" || i.Type == "" {
		return fmt.Errorf("core: impl info missing name (%q) or type (%q)", i.Name, i.Type)
	}
	if !i.Scope.Valid() {
		return fmt.Errorf("core: impl %q: invalid scope %d", i.Name, i.Scope)
	}
	if !i.Endpoint.Valid() {
		return fmt.Errorf("core: impl %q: invalid endpoint %d", i.Name, i.Endpoint)
	}
	return nil
}

// Impl is a chunnel implementation: the unit registered with the local
// registry (fallbacks) or advertised through discovery (accelerated
// variants). Implementations provide initialization and teardown functions
// that configure the system and network on the application's behalf
// (§4.2), and a Wrap function that layers the chunnel's data-plane
// behaviour over a connection.
type Impl interface {
	// Info returns the implementation descriptor.
	Info() ImplInfo
	// Init configures the system and network so the application can use
	// this implementation (the paper's analog of calling ethtool or an
	// SDN controller). It runs once per connection binding, before Wrap.
	Init(ctx context.Context, env *Env, args []wire.Value) error
	// Teardown reverses Init when the connection ends.
	Teardown(ctx context.Context, env *Env) error
	// Wrap layers the chunnel over conn for the given side. args are the
	// DAG-declared constructor arguments; params are values contributed
	// by the peer's implementation during negotiation (e.g. the server's
	// IPC address or shard addresses).
	Wrap(ctx context.Context, conn Conn, args, params []wire.Value, side Side, env *Env) (Conn, error)
}

// ArgValidator is implemented by implementations that can check a DAG
// node's arguments during negotiation, so malformed specifications fail
// the connection at establishment (and are reported to the peer) rather
// than surfacing later during stack assembly.
type ArgValidator interface {
	ValidateArgs(args []wire.Value) error
}

// ParamProvider is implemented by server-side implementations that
// contribute parameters to the client during negotiation — for example,
// the local fast-path chunnel publishes its UNIX socket path, and the
// sharding chunnel publishes shard addresses so a client-push
// implementation can dial them directly.
type ParamProvider interface {
	NegotiateParams(ctx context.Context, env *Env, args []wire.Value) ([]wire.Value, error)
}

// MultiWrapper is implemented by chunnels that operate over connections to
// several peers at once (ordered multicast, Listing 2: "the argument
// passed into connect is a vector containing endpoint addresses").
type MultiWrapper interface {
	WrapMulti(ctx context.Context, conns []Conn, args, params []wire.Value, side Side, env *Env) (Conn, error)
}

// ConfigAction records one system- or network-configuration step performed
// by an implementation's Init or Teardown. The log substitutes for the
// paper's ethtool/SDN-controller calls and makes "Bertha updates system
// and network configuration" testable.
type ConfigAction struct {
	// Target names the configured component, e.g. "xdp:eth0" or
	// "switch:tor1".
	Target string
	// Action describes the step, e.g. "attach-program" or "add-route".
	Action string
	// Detail carries free-form parameters.
	Detail string
}

// String renders the action.
func (c ConfigAction) String() string {
	return fmt.Sprintf("%s: %s (%s)", c.Target, c.Action, c.Detail)
}

// Env is the execution environment handed to implementations: host
// identity, a dialer for opening additional base connections, named
// attachment points (XDP hooks, switch pipelines, IPC listeners), and the
// configuration log.
//
// An Env is scoped to one endpoint (one application process on one host).
// It is safe for concurrent use.
type Env struct {
	// Host is this endpoint's host identity (matches Addr.Host).
	Host string

	mu        sync.Mutex
	dialer    Dialer
	resources map[string]any
	log       []ConfigAction
}

// NewEnv returns an Env for the given host identity.
func NewEnv(host string) *Env {
	return &Env{Host: host, resources: make(map[string]any)}
}

// SetDialer installs the dialer implementations use to open additional
// base-transport connections.
func (e *Env) SetDialer(d Dialer) {
	e.mu.Lock()
	e.dialer = d
	e.mu.Unlock()
}

// Dialer returns the installed dialer, or nil.
func (e *Env) Dialer() Dialer {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.dialer
}

// Provide publishes a named attachment point or capability — for example
// an XDP hook ("xdp:rx"), a switch pipeline handle ("switch:tor"), or a
// server's extra listener.
func (e *Env) Provide(name string, v any) {
	e.mu.Lock()
	e.resources[name] = v
	e.mu.Unlock()
}

// Lookup fetches a named attachment point.
func (e *Env) Lookup(name string) (any, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	v, ok := e.resources[name]
	return v, ok
}

// Configure appends a configuration action to the log.
func (e *Env) Configure(target, action, detail string) {
	e.mu.Lock()
	e.log = append(e.log, ConfigAction{Target: target, Action: action, Detail: detail})
	e.mu.Unlock()
}

// ConfigLog returns a copy of the configuration actions applied so far.
func (e *Env) ConfigLog() []ConfigAction {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]ConfigAction(nil), e.log...)
}
