package core

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"github.com/bertha-net/bertha/internal/spec"
	"github.com/bertha-net/bertha/internal/telemetry"
	"github.com/bertha-net/bertha/internal/wire"
)

// Negotiation wire protocol (§4.3). Connection establishment exchanges one
// ClientHello and one ServerHello on the control channel of the tagged
// base connection:
//
//	client                              server
//	  |--- ClientHello{spec, offers} --->|
//	  |                                  |  merge specs, resolve selects,
//	  |                                  |  pick impls via policy,
//	  |                                  |  claim resources, collect params
//	  |<-- ServerHello{resolved stack} --|
//
// plus, before the hello, an optional discovery query (§4.2) — the two
// extra round trips the paper measures for Figure 3.

// protoVersion is the negotiation protocol version.
const protoVersion = 1

// Control message types.
const (
	msgClientHello = 1
	msgServerHello = 2
	// msgClose announces connection teardown, so the peer can release
	// per-connection state immediately — essential over datagram
	// transports where address reuse would otherwise bind a new
	// connection's handshake to a stale peer entry.
	msgClose = 3
)

// ClientHello is the connecting endpoint's half of negotiation.
type ClientHello struct {
	// Nonce correlates retransmitted hellos with their reply.
	Nonce uint64
	// Name is the endpoint name (debugging aid, §3.1).
	Name string
	// Host is the client's host identity, used for locality decisions.
	Host string
	// Spec is the client's declared Chunnel DAG (possibly empty: Listing 5
	// clients inherit the server's chunnels).
	Spec *spec.Stack
	// Offers advertises the client's locally-registered implementations.
	Offers []ImplOffer

	// offerBlock, when set, is Offers already encoded (EncodeOffers): the
	// registry snapshot's block, which Encode copies instead of encoding
	// the offers again.
	offerBlock []byte
}

// Encode appends the hello to the encoder. The offers come last, so the
// rest of the message after the spec is the offer block.
func (h *ClientHello) Encode(e *wire.Encoder) {
	e.PutUint8(msgClientHello)
	e.PutUint8(protoVersion)
	e.PutUint64(h.Nonce)
	e.PutString(h.Name)
	e.PutString(h.Host)
	h.Spec.Encode(e)
	if h.offerBlock != nil {
		e.PutRaw(h.offerBlock)
	} else {
		EncodeOffers(e, h.Offers)
	}
}

// helloEncoders recycles the encoders hellos are built in.
var helloEncoders = sync.Pool{New: func() any { return wire.NewEncoder(nil) }}

// encodeHello returns a hello's encoding in a slice of exactly its size:
// the copy a connection keeps (to retransmit, or to replay) is its one
// allocation.
func encodeHello(h interface{ Encode(*wire.Encoder) }) []byte {
	e := helloEncoders.Get().(*wire.Encoder)
	e.Reset()
	h.Encode(e)
	out := slices.Clone(e.Bytes())
	helloEncoders.Put(e)
	return out
}

// DecodeClientHello reads a ClientHello (after the message-type byte).
func DecodeClientHello(d *wire.Decoder) (*ClientHello, error) {
	h, block, err := decodeHelloHead(d)
	if err != nil {
		return nil, err
	}
	od := wire.NewDecoder(block)
	h.Offers = DecodeOffers(od)
	if err := od.Err(); err != nil {
		return nil, malformedHello(err)
	}
	return h, nil
}

// decodeHelloHead reads a ClientHello up to its offers and returns the
// rest of the message, the offer block, undecoded: a server looks the
// block up in its registry snapshot (regSnapshot.table) instead.
func decodeHelloHead(d *wire.Decoder) (*ClientHello, []byte, error) {
	if v := d.Uint8(); v != protoVersion {
		if d.Err() == nil {
			return nil, nil, fmt.Errorf("%w: unsupported protocol version %d", ErrNegotiation, v)
		}
	}
	h := &ClientHello{
		Nonce: d.Uint64(),
		Name:  d.String(),
		Host:  d.String(),
		Spec:  spec.DecodeStack(d),
	}
	if err := d.Err(); err != nil {
		return nil, nil, malformedHello(err)
	}
	return h, d.Raw(d.Remaining()), nil
}

func malformedHello(err error) error {
	return fmt.Errorf("%w: malformed client hello: %v", ErrNegotiation, err)
}

// ResolvedNode is one entry in the negotiated connection stack: a concrete
// chunnel node (selects resolved away) bound to a chosen implementation.
type ResolvedNode struct {
	// Type and Args mirror the spec node.
	Type string
	Args []wire.Value
	// ImplName is the selected implementation.
	ImplName string
	// Endpoint is the chosen implementation's endpoint requirement; it
	// determines which sides instantiate the chunnel.
	Endpoint spec.Endpoint
	// Owner is the side that instantiates the chunnel when Endpoint is
	// EndpointEither (for Client/Server/Both it is implied).
	Owner Side
	// Location is where the implementation runs.
	Location Location
	// Params carries implementation parameters contributed by the server
	// during negotiation (e.g. IPC addresses, shard addresses).
	Params []wire.Value
	// ClaimID is a nonzero discovery resource claim to release on close
	// (meaningful only on the side that made the claim).
	ClaimID uint64
}

// RunsAt reports whether the chunnel is instantiated at the given side.
func (rn ResolvedNode) RunsAt(side Side) bool {
	switch rn.Endpoint {
	case spec.EndpointBoth:
		return true
	case spec.EndpointClient:
		return side == SideClient
	case spec.EndpointServer:
		return side == SideServer
	default: // EndpointEither
		return rn.Owner == side
	}
}

func (rn ResolvedNode) encode(e *wire.Encoder) {
	e.PutString(rn.Type)
	e.PutLen(len(rn.Args))
	for _, a := range rn.Args {
		a.Encode(e)
	}
	e.PutString(rn.ImplName)
	e.PutUint8(uint8(rn.Endpoint))
	e.PutUint8(uint8(rn.Owner))
	e.PutUint8(uint8(rn.Location))
	e.PutLen(len(rn.Params))
	for _, p := range rn.Params {
		p.Encode(e)
	}
}

func decodeResolvedNode(d *wire.Decoder) ResolvedNode {
	var rn ResolvedNode
	rn.Type = d.String()
	n := d.Len()
	if d.Err() != nil {
		return rn
	}
	for i := 0; i < n; i++ {
		rn.Args = append(rn.Args, wire.DecodeValue(d))
	}
	rn.ImplName = d.String()
	rn.Endpoint = spec.Endpoint(d.Uint8())
	rn.Owner = Side(d.Uint8())
	rn.Location = Location(d.Uint8())
	np := d.Len()
	if d.Err() != nil {
		return rn
	}
	for i := 0; i < np; i++ {
		rn.Params = append(rn.Params, wire.DecodeValue(d))
	}
	return rn
}

// ServerHello is the listening endpoint's negotiation decision.
type ServerHello struct {
	Nonce uint64
	Name  string
	Host  string
	// Err, when nonempty, reports negotiation failure (§4.3: "the
	// connection fails in the absence of the implementations").
	Err string
	// Stack is the resolved connection stack, outermost chunnel first.
	Stack []ResolvedNode
}

// Encode appends the hello.
func (h *ServerHello) Encode(e *wire.Encoder) {
	e.PutUint8(msgServerHello)
	e.PutUint8(protoVersion)
	e.PutUint64(h.Nonce)
	e.PutString(h.Name)
	e.PutString(h.Host)
	e.PutString(h.Err)
	e.PutLen(len(h.Stack))
	for _, rn := range h.Stack {
		rn.encode(e)
	}
}

// DecodeServerHello reads a ServerHello (after the message-type byte).
func DecodeServerHello(d *wire.Decoder) (*ServerHello, error) {
	if v := d.Uint8(); v != protoVersion {
		if d.Err() == nil {
			return nil, fmt.Errorf("%w: unsupported protocol version %d", ErrNegotiation, v)
		}
	}
	h := &ServerHello{
		Nonce: d.Uint64(),
		Name:  d.String(),
		Host:  d.String(),
		Err:   d.String(),
	}
	n := d.Len()
	if d.Err() == nil {
		for i := 0; i < n; i++ {
			h.Stack = append(h.Stack, decodeResolvedNode(d))
		}
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("%w: malformed server hello: %v", ErrNegotiation, err)
	}
	return h, nil
}

// DiscoveryClient is the runtime's view of the Bertha discovery service
// (§4.2). The concrete implementation lives in internal/discovery; core
// depends only on this interface.
type DiscoveryClient interface {
	// Query returns advertisements for the given chunnel types.
	Query(ctx context.Context, types []string) ([]ImplOffer, error)
	// Claim reserves an implementation's resources for a connection; it
	// fails when capacity is exhausted, in which case negotiation falls
	// back to the next candidate.
	Claim(ctx context.Context, implName string, res Resources) (claimID uint64, err error)
	// Release frees a prior claim.
	Release(ctx context.Context, claimID uint64) error
}

// mergeSpecs computes the connection's effective DAG from the two
// endpoints' declarations: an empty side inherits the other's DAG
// (Listing 5); equal DAGs agree; conflicting non-empty DAGs fail
// (§4.3 compatibility check).
func mergeSpecs(client, server *spec.Stack) (*spec.Stack, error) {
	switch {
	case client.Empty():
		return server, nil
	case server.Empty():
		return client, nil
	case client.Equal(server):
		return server, nil
	default:
		return nil, fmt.Errorf("%w: client %s vs server %s", ErrIncompatibleSpecs, client, server)
	}
}

// resolveSelects flattens select nodes into their chosen branch using the
// registered resolver for the node's type (default: first branch all of
// whose chunnel types have usable candidates).
func resolveSelects(s *spec.Stack, reg *regSnapshot, sctx SelectContext) ([]spec.Node, error) {
	return resolveSelectsDepth(s, reg, sctx, 0)
}

func resolveSelectsDepth(s *spec.Stack, reg *regSnapshot, sctx SelectContext, depth int) ([]spec.Node, error) {
	if depth > spec.MaxDepth {
		return nil, fmt.Errorf("%w: select nesting too deep", ErrNegotiation)
	}
	var out []spec.Node
	for _, n := range s.Nodes {
		if !n.IsSelect() {
			out = append(out, n)
			continue
		}
		idx, err := pickBranch(n, reg, sctx)
		if err != nil {
			return nil, err
		}
		if idx < 0 || idx >= len(n.Branches) {
			return nil, fmt.Errorf("%w: resolver for %q chose branch %d of %d", ErrNegotiation, n.Type, idx, len(n.Branches))
		}
		nodes, err := resolveSelectsDepth(n.Branches[idx], reg, sctx, depth+1)
		if err != nil {
			return nil, err
		}
		out = append(out, nodes...)
	}
	return out, nil
}

func pickBranch(n spec.Node, reg *regSnapshot, sctx SelectContext) (int, error) {
	if res, ok := reg.resolvers[n.Type]; ok {
		return res(n.Args, n.Branches, sctx)
	}
	// Default: first branch that can be satisfied — every plain node's
	// type has a candidate, and every nested select resolves recursively.
	for i, b := range n.Branches {
		if branchAvailable(b, reg, sctx) {
			return i, nil
		}
	}
	return 0, fmt.Errorf("%w: no branch of select %q is available", ErrNoImplementation, n.Type)
}

func branchAvailable(b *spec.Stack, reg *regSnapshot, sctx SelectContext) bool {
	for _, n := range b.Nodes {
		if n.IsSelect() {
			idx, err := pickBranch(n, reg, sctx)
			if err != nil || idx < 0 || idx >= len(n.Branches) {
				return false
			}
			if !branchAvailable(n.Branches[idx], reg, sctx) {
				return false
			}
			continue
		}
		if !sctx.Available(n.Type) {
			return false
		}
	}
	return true
}

// decide is the server-side negotiation decision: given the client hello,
// the candidate table its offer block yields against the server's
// registry snapshot, and the server's spec/policy/discovery, produce the
// resolved stack. It performs select resolution, candidate collection,
// endpoint feasibility filtering, policy ranking, resource claiming, and
// parameter collection.
func decide(ctx context.Context, ch *ClientHello, tab *offerTable, srv *negotiator) ([]ResolvedNode, error) {
	effective, err := mergeSpecs(ch.Spec, srv.stack)
	if err != nil {
		return nil, err
	}
	if err := effective.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNegotiation, err)
	}

	// Candidates: both endpoints' offers from the table, plus what the
	// discovery service advertises for this connection's chunnel types.
	byType := tab.byType
	if srv.discovery != nil {
		types := srv.stackTypes
		if effective != srv.stack {
			types = effective.Types()
		}
		discovered, err := srv.discovery.Query(ctx, types)
		if err != nil {
			return nil, fmt.Errorf("%w: discovery query: %v", ErrNegotiation, err)
		}
		if len(discovered) > 0 {
			byType = withDiscovered(byType, discovered, ch.Host)
		}
	}

	sctx := SelectContext{
		ClientHost: ch.Host,
		ServerHost: srv.host,
		Available: func(t string) bool {
			return len(byType[t]) > 0
		},
	}
	nodes, err := resolveSelects(effective, srv.snap, sctx)
	if err != nil {
		return nil, err
	}

	if srv.optimizer != nil {
		nodes, err = srv.optimizer.Apply(nodes, byType)
		if err != nil {
			return nil, fmt.Errorf("%w: optimizer: %v", ErrNegotiation, err)
		}
	}

	clientSet, serverSet := tab.clientSet, srv.snap.offered
	resolved := make([]ResolvedNode, 0, len(nodes))
	for _, node := range nodes {
		rn, err := bindNode(ctx, node, byType[node.Type], ch, srv, clientSet, serverSet)
		if err != nil {
			return nil, err
		}
		resolved = append(resolved, rn)
	}

	// Distributed tracing rides negotiation rather than the application
	// spec: when the server endpoint enables it and both peers register
	// the trace chunnel, append it as the innermost layer (appended last
	// → wrapped first in assemble), so its 16-byte context lands
	// directly after the mux tag byte where forwarding elements peek.
	// A peer without the implementation silently gets an untraced stack —
	// tracing is an observability opt-in, never a negotiation failure.
	if srv.tracing != nil && clientSet[TraceImplName] && serverSet[TraceImplName] {
		resolved = append(resolved, ResolvedNode{
			Type:     TraceChunnelType,
			ImplName: TraceImplName,
			Endpoint: spec.EndpointBoth,
		})
	}
	return resolved, nil
}

// bindNode selects an implementation for one node, claiming resources and
// collecting server-side parameters.
func bindNode(ctx context.Context, node spec.Node, cands []Candidate, ch *ClientHello, srv *negotiator, clientSet, serverSet map[string]bool) (ResolvedNode, error) {
	var usable []Candidate
	for _, c := range cands {
		if !c.usableFor(node, ch.Host, srv.host) {
			continue
		}
		// Endpoint feasibility: a Both implementation requires the same
		// implementation to be instantiable at both endpoints.
		if c.Offer.Endpoint == spec.EndpointBoth && !(clientSet[c.Offer.Name] && serverSet[c.Offer.Name]) {
			continue
		}
		// A Client (resp. Server) implementation must be instantiable at
		// that side.
		if c.Offer.Endpoint == spec.EndpointClient && !clientSet[c.Offer.Name] && !(c.Discovered && c.From == SideClient) {
			continue
		}
		if c.Offer.Endpoint == spec.EndpointServer && !serverSet[c.Offer.Name] && !(c.Discovered && c.From == SideServer) {
			continue
		}
		usable = append(usable, c)
	}

	for len(usable) > 0 {
		chosen, err := srv.policy(node, usable)
		if err != nil {
			return ResolvedNode{}, fmt.Errorf("%w: %v", ErrNegotiation, err)
		}
		rn := ResolvedNode{
			Type:     node.Type,
			Args:     node.Args,
			ImplName: chosen.Offer.Name,
			Endpoint: chosen.Offer.Endpoint,
			Owner:    chosen.From,
			Location: chosen.Offer.Location,
		}
		// Claim discovered resources; on failure, drop this candidate and
		// rerun the policy (paper §2: fall back when "resources required
		// by registered implementations are already occupied").
		if chosen.Discovered && !chosen.Offer.Resources.IsZero() && srv.discovery != nil {
			claim, err := srv.discovery.Claim(ctx, chosen.Offer.Name, chosen.Offer.Resources)
			if err != nil {
				srv.traceFallback(node.Type, chosen, "resource claim failed: "+err.Error())
				usable = removeCandidate(usable, chosen)
				continue
			}
			rn.ClaimID = claim
		}
		// Validate the node's arguments against the chosen (or any
		// local same-type) implementation before committing.
		if err := srv.validateArgs(rn.ImplName, rn.Type, node.Args); err != nil {
			return ResolvedNode{}, fmt.Errorf("%w: %v", ErrNegotiation, err)
		}
		// Collect server-side negotiation parameters: the chosen
		// implementation if the server has it, otherwise any server
		// implementation of the same chunnel type that provides
		// parameters (e.g. the server's sharding implementation publishes
		// shard addresses even when the client-push variant is chosen).
		if pp := srv.paramProvider(rn.ImplName, rn.Type); pp != nil {
			params, err := pp.NegotiateParams(ctx, srv.env, node.Args)
			if err != nil {
				// The implementation cannot be configured here (e.g. the
				// switch variant on a host with no programmable switch):
				// release any claim and fall back to the next candidate.
				if rn.ClaimID != 0 && srv.discovery != nil {
					srv.discovery.Release(ctx, rn.ClaimID)
				}
				srv.traceFallback(node.Type, chosen, "params unobtainable: "+err.Error())
				usable = removeCandidate(usable, chosen)
				continue
			}
			rn.Params = params
		}
		srv.traceChosen(rn, chosen)
		return rn, nil
	}
	return ResolvedNode{}, fmt.Errorf("%w: %q", ErrNoImplementation, node.Type)
}

// traceChosen records a TraceImplChosen event carrying the policy's
// ranking inputs for the winning candidate.
func (srv *negotiator) traceChosen(rn ResolvedNode, chosen Candidate) {
	srv.trace(SideServer, telemetry.TraceImplChosen, telemetry.TraceEvent{
		Chunnel: rn.Type,
		Impl:    rn.ImplName,
		Detail: fmt.Sprintf("priority=%d location=%s from=%s discovered=%v",
			chosen.Offer.Priority, chosen.Offer.Location, chosen.From, chosen.Discovered),
	})
}

// traceFallback records a TraceFallback event: the preferred candidate
// was dropped and the policy re-runs over the remaining set.
func (srv *negotiator) traceFallback(chunnelType string, dropped Candidate, why string) {
	srv.trace(SideServer, telemetry.TraceFallback, telemetry.TraceEvent{
		Chunnel: chunnelType,
		Impl:    dropped.Offer.Name,
		Detail:  why,
	})
}

func removeCandidate(cands []Candidate, c Candidate) []Candidate {
	out := cands[:0]
	for _, x := range cands {
		if x.Offer.Name != c.Offer.Name || x.From != c.From || x.Discovered != c.Discovered {
			out = append(out, x)
		}
	}
	return out
}
