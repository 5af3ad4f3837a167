package core

import (
	"bytes"
	"maps"
	"slices"

	"github.com/bertha-net/bertha/internal/spec"
	"github.com/bertha-net/bertha/internal/wire"
)

// ImplOffer is the wire-encodable advertisement of one chunnel
// implementation, exchanged in negotiation hellos and stored by the
// discovery service. It is the subset of ImplInfo a remote endpoint needs
// to rank candidates.
type ImplOffer struct {
	Name      string
	Type      string
	Scope     spec.Scope
	Endpoint  spec.Endpoint
	Priority  int
	Location  Location
	Resources Resources
	// Host is the host the implementation is bound to ("" when the
	// implementation is wherever the registering endpoint is). Discovery
	// uses it to filter host-scoped offloads.
	Host string
	// Meta carries implementation-defined metadata (e.g. the instance
	// address for anycast service advertisements, or an offload firmware
	// version). Negotiation treats it as opaque.
	Meta string
}

// OfferFromInfo converts a registry descriptor into an advertisement.
func OfferFromInfo(i ImplInfo) ImplOffer {
	return ImplOffer{
		Name:      i.Name,
		Type:      i.Type,
		Scope:     i.Scope,
		Endpoint:  i.Endpoint,
		Priority:  i.Priority,
		Location:  i.Location,
		Resources: i.Resources,
	}
}

// Encode appends the offer.
func (o ImplOffer) Encode(e *wire.Encoder) {
	e.PutString(o.Name)
	e.PutString(o.Type)
	e.PutUint8(uint8(o.Scope))
	e.PutUint8(uint8(o.Endpoint))
	e.PutVarint(int64(o.Priority))
	e.PutUint8(uint8(o.Location))
	o.Resources.Encode(e)
	e.PutString(o.Host)
	e.PutString(o.Meta)
}

// DecodeOffer reads one offer.
func DecodeOffer(d *wire.Decoder) ImplOffer {
	return ImplOffer{
		Name:      d.String(),
		Type:      d.String(),
		Scope:     spec.Scope(d.Uint8()),
		Endpoint:  spec.Endpoint(d.Uint8()),
		Priority:  int(d.Varint()),
		Location:  Location(d.Uint8()),
		Resources: DecodeResources(d),
		Host:      d.String(),
		Meta:      d.String(),
	}
}

// EncodeOffers appends a length-prefixed offer list.
func EncodeOffers(e *wire.Encoder, offers []ImplOffer) {
	e.PutLen(len(offers))
	for _, o := range offers {
		o.Encode(e)
	}
}

// DecodeOffers reads a length-prefixed offer list.
func DecodeOffers(d *wire.Decoder) []ImplOffer {
	n := d.Len()
	if d.Err() != nil {
		return nil
	}
	out := make([]ImplOffer, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, DecodeOffer(d))
		if d.Err() != nil {
			return nil
		}
	}
	return out
}

// Candidate pairs an offer with its origin for policy ranking: which side
// of the connection advertised it (or whether it came from discovery).
type Candidate struct {
	Offer ImplOffer
	// From is the endpoint that can instantiate the implementation.
	From Side
	// Discovered marks offers obtained from the discovery service rather
	// than an endpoint's local registry.
	Discovered bool
}

// usableFor reports whether the candidate satisfies a node's scope
// constraint and, for host-scoped offloads from discovery, host locality.
func (c Candidate) usableFor(node spec.Node, clientHost, serverHost string) bool {
	if node.Scope != spec.ScopeAny && !c.Offer.Location.AllowedBy(node.Scope) {
		return false
	}
	// A discovered offload pinned to a host is usable only when one of
	// the connection's endpoints is on that host (on-server offloads) or
	// when it is an in-network device (switch scope).
	if c.Discovered && c.Offer.Host != "" && c.Offer.Location != LocSwitch {
		if c.Offer.Host != clientHost && c.Offer.Host != serverHost {
			return false
		}
	}
	return true
}

// offerTable is what a server derives from one client offer block (the
// encoded offers that end a ClientHello) against one registry snapshot:
// the client's offers, their names, and both endpoints' candidates by
// chunnel type. Nobody writes a table after it is built, so connections
// share it.
type offerTable struct {
	block     []byte // the client offer block it was built from
	client    []ImplOffer
	clientSet map[string]bool
	byType    map[string][]Candidate // client offers first, then the server's
}

// table returns the offer table for a client offer block. It fails when
// the block does not decode.
//
// A snapshot keeps the last table it built, and nothing more: a client
// sends the same block on every connection until its registry changes, so
// a server whose clients share one registry build decodes the block once
// per snapshot. A block unlike the last one costs a decode and a copy of
// the block, and replaces it.
func (s *regSnapshot) table(block []byte) (*offerTable, error) {
	if t := s.last.Load(); t != nil && bytes.Equal(t.block, block) {
		return t, nil
	}
	d := wire.NewDecoder(block)
	client := DecodeOffers(d)
	if err := d.Err(); err != nil {
		return nil, err
	}
	t := &offerTable{
		block:     bytes.Clone(block),
		client:    client,
		clientSet: make(map[string]bool, len(client)),
		byType:    make(map[string][]Candidate),
	}
	for _, o := range client {
		t.byType[o.Type] = append(t.byType[o.Type], Candidate{Offer: o, From: SideClient})
		t.clientSet[o.Name] = true
	}
	for _, o := range s.offers {
		t.byType[o.Type] = append(t.byType[o.Type], Candidate{Offer: o, From: SideServer})
	}
	s.last.Store(t)
	return t, nil
}

// withDiscovered returns a copy of byType with offers from the discovery
// service added; byType itself (an offerTable's) stays as it is. A
// discovered on-server offload is instantiated by whichever endpoint
// shares its host; in-network devices default to the server, which
// coordinates switch configuration.
func withDiscovered(byType map[string][]Candidate, discovered []ImplOffer, clientHost string) map[string][]Candidate {
	out := maps.Clone(byType)
	for _, o := range discovered {
		from := SideServer
		if o.Host != "" && o.Host == clientHost {
			from = SideClient
		}
		out[o.Type] = append(slices.Clip(out[o.Type]), Candidate{Offer: o, From: from, Discovered: true})
	}
	return out
}
