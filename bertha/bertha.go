// Package bertha is the public interface of the Bertha network API
// (Narayan et al., HotNets '20): a userspace connection library, similar
// in role to UNIX sockets, in which applications declare the
// communication-oriented functions of a connection as a DAG of Chunnels
// and the runtime binds each Chunnel to the best available
// implementation — host software fallback, kernel datapath, SmartNIC, or
// programmable switch — when the connection is established.
//
// Creating an endpoint mirrors the paper's §3.1 interface:
//
//	srv, err := bertha.New("my-kv-srv",
//	    bertha.Wrap(bertha.Shard(shards, shardFn), bertha.Reliable()))
//	listener, err := srv.Listen(ctx, baseListener)
//
// and a client that inherits the server's chunnels (Listing 5):
//
//	cli, err := bertha.New("client_conn", bertha.Wrap())
//	conn, err := cli.Connect(ctx, rawConn)
//
// Fallback implementations are registered when the application launches
// (Listing 5 line 2): RegisterStandard installs the fallbacks for every
// chunnel shipped in this repository. Accelerated implementations are
// registered with the discovery service by operators and offload
// developers, and picked up by negotiation with no application changes.
package bertha

import (
	"context"
	"time"

	"github.com/bertha-net/bertha/internal/chunnels/compress"
	"github.com/bertha-net/bertha/internal/chunnels/crypt"
	"github.com/bertha-net/bertha/internal/chunnels/framing"
	"github.com/bertha-net/bertha/internal/chunnels/lb"
	"github.com/bertha-net/bertha/internal/chunnels/localfast"
	"github.com/bertha-net/bertha/internal/chunnels/mcast"
	"github.com/bertha-net/bertha/internal/chunnels/ordering"
	"github.com/bertha-net/bertha/internal/chunnels/reliable"
	"github.com/bertha-net/bertha/internal/chunnels/serialize"
	"github.com/bertha-net/bertha/internal/chunnels/shard"
	"github.com/bertha-net/bertha/internal/chunnels/traced"
	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/spec"
	"github.com/bertha-net/bertha/internal/wire"
	"github.com/bertha-net/bertha/internal/xdp"
)

// Core connection types (Table 1 glossary: these are the API's nouns).
type (
	// Conn is a connected, message-oriented Bertha connection.
	Conn = core.Conn
	// Listener accepts negotiated connections.
	Listener = core.Listener
	// Addr identifies an endpoint across transports.
	Addr = core.Addr
	// Dialer opens base-transport connections.
	Dialer = core.Dialer
	// Endpoint is the Bertha equivalent of a socket (§3.1).
	Endpoint = core.Endpoint
	// Option configures an Endpoint.
	Option = core.Option
	// Env is the execution environment handed to implementations.
	Env = core.Env
	// Registry holds chunnel implementations (Table 1 "Fallback Impl.").
	Registry = core.Registry
	// Impl is a chunnel implementation (Table 1 "Offload" when
	// accelerated, "Fallback Impl." when host software).
	Impl = core.Impl
	// ImplInfo describes an implementation.
	ImplInfo = core.ImplInfo
	// Policy ranks candidate implementations during negotiation (§4.3).
	Policy = core.Policy
	// Side distinguishes the connecting from the listening endpoint.
	Side = core.Side
	// DiscoveryClient is the runtime's view of the discovery service.
	DiscoveryClient = core.DiscoveryClient
	// CoalesceConfig parameterizes send-side coalescing (WithCoalescing).
	CoalesceConfig = core.CoalesceConfig
	// TraceConfig parameterizes in-band message tracing (WithTracing).
	TraceConfig = core.TraceConfig
	// HopStat is one layer's exclusive-latency rollup (ConnHopStats).
	HopStat = core.HopStat
	// ReactorConfig parameterizes the sharded reactor runtime
	// (WithReactor): the listener-side event-loop datapath.
	ReactorConfig = core.ReactorConfig
	// ReactorStats is a reactor listener's accounting snapshot
	// (connections, goroutines, ring occupancy, memory).
	ReactorStats = core.ReactorStats
	// Handler answers one request of a service run by Serve: it reads
	// the borrowed request and appends the response to reply.
	Handler = core.Handler
	// Buf is a pooled message buffer with headroom, the unit the
	// zero-copy datapath (and a Handler) works on.
	Buf = wire.Buf

	// Stack is a Chunnel DAG (Table 1 "Chunnel DAG").
	Stack = spec.Stack
	// Node is one chunnel in a DAG (Table 1 "Chunnel").
	Node = spec.Node
	// Scope constrains where a chunnel runs (Table 1 "Scope").
	Scope = spec.Scope
	// EndpointReq declares which sides must run a chunnel.
	EndpointReq = spec.Endpoint

	// FieldHash is the declarative shard function: hash of a fixed
	// payload field, modulo the shard count (Listing 4's shard_fn).
	FieldHash = xdp.FieldHash
)

// Scope values (bertha::scope::*).
const (
	ScopeAny         = spec.ScopeAny
	ScopeApplication = spec.ScopeApplication
	ScopeHost        = spec.ScopeHost
	ScopeLocalNet    = spec.ScopeLocalNet
	ScopeGlobal      = spec.ScopeGlobal
)

// Endpoint requirements (bertha::endpoints::*).
const (
	EndpointEither = spec.EndpointEither
	EndpointClient = spec.EndpointClient
	EndpointServer = spec.EndpointServer
	EndpointBoth   = spec.EndpointBoth
)

// New creates a connection endpoint — the equivalent of
// bertha::new(name, wrap!(...)).
func New(name string, stack *Stack, opts ...Option) (*Endpoint, error) {
	return core.NewEndpoint(name, stack, opts...)
}

// Wrap builds a Chunnel DAG from nodes in application-to-transport
// order: Wrap(a, b, c) is wrap!(a |> b |> c). Wrap() is the empty DAG a
// Listing 5 client uses to inherit the server's chunnels.
func Wrap(nodes ...Node) *Stack {
	return spec.Seq(nodes...)
}

// Select builds a branching node resolved during negotiation.
func Select(typ string, branches ...*Stack) Node {
	return spec.Select(typ, nil, branches...)
}

// Endpoint options, re-exported.
var (
	// WithRegistry uses an explicit registry instead of the default.
	WithRegistry = core.WithRegistry
	// WithDiscovery attaches a discovery client (§4.2).
	WithDiscovery = core.WithDiscovery
	// WithPolicy overrides the selection policy (§4.3).
	WithPolicy = core.WithPolicy
	// WithEnv supplies the execution environment.
	WithEnv = core.WithEnv
	// WithOptimizer enables §6 DAG optimization passes.
	WithOptimizer = core.WithOptimizer
	// WithTelemetry records this endpoint's metrics and negotiation
	// traces into an explicit telemetry registry instead of the
	// process-wide default (telemetry.Default()).
	WithTelemetry = core.WithTelemetry
	// WithCoalescing wraps the endpoint's connections in a send-side
	// coalescer: per-message sends under sustained load are gathered
	// into bursts that ride the vectored datapath, idle connections
	// keep the direct path. The zero CoalesceConfig selects the
	// defaults (50µs flush budget, 64-message bursts).
	WithCoalescing = core.WithCoalescing
	// WithTracing enables in-band message tracing on connections this
	// endpoint negotiates: sampled messages carry a 16-byte trace
	// context across the wire, every stack layer records spans into the
	// telemetry registry's flight-recorder ring, and the full journey is
	// queryable via the telemetry endpoint's ?spans= view. Both peers
	// must register the trace chunnel (RegisterStandard does); a peer
	// without it silently degrades to untraced connections. The zero
	// TraceConfig samples 1 in 128 messages into a 4096-span ring.
	WithTracing = core.WithTracing
	// WithReactor shapes the sharded reactor runtime of demultiplexing
	// datagram listeners this endpoint wraps: the number of reactor
	// goroutines draining the shared socket and the per-connection
	// receive-ring depth. The zero ReactorConfig selects the defaults
	// (GOMAXPROCS shards, 1024-slot rings). Listeners whose base
	// transport has no reactor (pipes) ignore it.
	WithReactor = core.WithReactor
)

// Serve runs a request/reply service on a listener — negotiated or base
// — until ctx is done or the listener is closed: every request is handed
// to h, and what h answers goes back on the connection the request came
// from. Serve works in bursts (the requests a connection has queued are
// taken together and their replies leave in one vectored send), uses one
// worker per reactor shard on the datagram transports however many
// connections they carry, and joins everything it started before it
// returns.
//
//	func answer(ctx context.Context, req, reply *bertha.Buf) bool {
//	    reply.Append(lookup(req.Bytes())) // req is only valid until the handler returns
//	    return true                       // false: no reply to this request
//	}
//
//	err := bertha.Serve(ctx, listener, answer)
func Serve(ctx context.Context, l Listener, h Handler) error {
	return core.Serve(ctx, l, h)
}

// ConnHopStats reports a negotiated connection's per-layer exclusive
// send-latency rollup (outermost first), the attribution that tells an
// operator — or a renegotiation policy — which layer owns the latency.
// It needs tracing enabled (WithTracing) to have data to fold; without
// it, or on non-negotiated conns, it returns nil.
func ConnHopStats(conn Conn) []HopStat { return core.ConnHopStats(conn) }

// Flush pushes a coalescing connection's pending sends to the wire
// (WithCoalescing); on any other connection it is a no-op. Callers with
// a latency-critical message send it and then Flush.
func Flush(ctx context.Context, conn Conn) error {
	return core.Flush(ctx, conn)
}

// Policies, re-exported.
var (
	// DefaultPolicy prefers client-provided implementations, then
	// higher priority (the paper's prototype policy).
	DefaultPolicy = core.DefaultPolicy
	// PreferLocation prefers implementations at a location.
	PreferLocation = core.PreferLocation
	// PreferImpl pins a named implementation when available.
	PreferImpl = core.PreferImpl
	// PreferSide prefers implementations instantiated at a side.
	PreferSide = core.PreferSide
)

// Sides.
const (
	SideClient = core.SideClient
	SideServer = core.SideServer
)

// Implementation locations.
const (
	LocUserspace = core.LocUserspace
	LocKernel    = core.LocKernel
	LocSmartNIC  = core.LocSmartNIC
	LocSwitch    = core.LocSwitch
)

// DefaultRegistry returns the process-wide implementation registry.
func DefaultRegistry() *Registry { return core.DefaultRegistry() }

// NewRegistry returns an empty registry (endpoints with isolated
// implementation sets, mainly for tests and multi-tenant processes).
func NewRegistry() *Registry { return core.NewRegistry() }

// NewEnv returns an execution environment with a host identity.
func NewEnv(host string) *Env { return core.NewEnv(host) }

// NewOptimizer returns a §6 DAG optimizer over a registry's metadata.
func NewOptimizer(reg *Registry) *core.Optimizer { return core.NewOptimizer(reg) }

// RegisterChunnel registers a fallback implementation with the default
// registry — Listing 5 line 2:
//
//	bertha::register_chunnel("reliable", ReliableChunnel, endpoints::Both, scope::Application)
func RegisterChunnel(impl Impl) error {
	return core.DefaultRegistry().Register(impl)
}

// RegisterStandard installs the host-fallback implementations of every
// chunnel shipped with this repository into reg (the default registry
// when reg is nil): serialization, reliability, ordering, compression,
// encryption, framing, the local fast-path, sharding (server fallback),
// load balancing (both sides), ordered multicast (host sequencer), and
// the trace pseudo-chunnel (inert until an endpoint opts in with
// WithTracing).
func RegisterStandard(reg *Registry) {
	if reg == nil {
		reg = core.DefaultRegistry()
	}
	serialize.Register(reg)
	reliable.Register(reg)
	ordering.Register(reg)
	compress.Register(reg)
	crypt.Register(reg)
	framing.Register(reg)
	localfast.Register(reg)
	shard.RegisterServer(reg)
	lb.RegisterClient(reg)
	lb.RegisterServer(reg)
	mcast.RegisterHost(reg)
	traced.Register(reg)
}

// Chunnel DAG node constructors, one per shipped chunnel type.

// Serialize declares the serialization chunnel (§3.2): the connection
// carries typed objects encoded with the named format.
func Serialize() Node { return serialize.Node(serialize.FormatBincode) }

// Reliable declares the reliability chunnel (Listing 5's
// ReliableChunnel): exactly-once in-order delivery.
func Reliable() Node { return reliable.Node() }

// ReliableWith declares reliability with an explicit window and
// retransmission timeout.
func ReliableWith(window int, rto time.Duration) Node {
	return reliable.NodeWith(window, rto)
}

// Ordered declares in-order (but not reliable) delivery.
func Ordered() Node { return ordering.Node() }

// Compress declares per-message compression at the given DEFLATE level.
func Compress(level int) Node { return compress.Node(level) }

// Encrypt declares AES-GCM encryption with a pre-shared key.
func Encrypt(key []byte) Node { return crypt.Node(key) }

// HTTP2 declares stream framing with the given maximum frame size.
func HTTP2(maxFrame int) Node { return framing.Node(maxFrame) }

// LocalOrRemote declares the container fast-path of Listing 1: IPC when
// the peer is host-local, datagrams otherwise.
func LocalOrRemote() Node { return localfast.Node() }

// Shard declares the sharding chunnel of Listing 4: requests steered
// among shard addresses by a declarative shard function.
func Shard(shards []Addr, fn FieldHash) Node { return shard.Node(shards, fn) }

// LB declares the load-balancing chunnel over backend addresses.
func LB(backends []Addr) Node { return lb.Node(backends) }

// OrderedMcast declares the ordered multicast chunnel of Listing 2 for
// a replica group.
func OrderedMcast(group string, replicaHosts []string) Node {
	return mcast.Node(group, replicaHosts)
}
