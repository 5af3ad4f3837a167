// Package mcast implements the ordered multicast chunnel of Listing 2
// (ordered_mcast): clients multicast operations to a replica group and
// every replica observes the same total order, established by a
// sequencer. Two implementations are registered, following the
// NOPaxos/Speculative-Paxos designs the paper cites (§3.2
// "Network-Assisted Consensus"):
//
//   - ordered_mcast/switch: the programmable switch stamps a sequence
//     number into each group-addressed packet as it replicates it — the
//     in-network sequencer. One network pass, no extra round trips.
//   - ordered_mcast/host: a software sequencer on the lead replica
//     stamps and re-multicasts operations — the host fallback, costing
//     an extra traversal through the leader.
//
// Replicas deliver operations in sequence order with duplicate
// suppression; gaps (lost multicasts) are repaired by fetching the
// missing operation from a peer replica's log, and skipped (flagged)
// only when no replica has it.
//
// The chunnel runs over the simulated fabric (internal/simnet), which
// provides the multicast group table and the match-action sequencer —
// the architectural slot of the paper's programmable switch.
package mcast

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"

	"github.com/bertha-net/bertha/internal/chunnels/base"
	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/simnet"
	"github.com/bertha-net/bertha/internal/spec"
	"github.com/bertha-net/bertha/internal/wire"
)

// Type is the chunnel type name.
const Type = "ordered_mcast"

// Implementation names.
const (
	ImplSwitch = Type + "/switch"
	ImplHost   = Type + "/host"
)

// Env keys.
const (
	// EnvHost provides the replica's *simnet.Host (server side).
	EnvHost = "mcast:host"
	// EnvSwitch provides the *simnet.Switch for the switch variant
	// (server side, when the replica's rack has a programmable switch).
	EnvSwitch = "mcast:switch"
)

// Frame layout: [seq uint64][cid uint64][payload]. The sequencer fills
// seq; cid routes replies through the host sequencer (zero on the
// switch path, where replies flow directly).
const frameHeader = 16

// Node builds the DAG node: ordered_mcast(group, replicaHosts).
func Node(gid string, replicaHosts []string) spec.Node {
	vs := make([]wire.Value, len(replicaHosts))
	for i, h := range replicaHosts {
		vs[i] = wire.Str(h)
	}
	return spec.New(Type, wire.Str(gid), wire.List(vs...))
}

func decodeArgs(args []wire.Value) (gid string, hosts []string, err error) {
	gid, err = base.Str(Type, args, 0)
	if err != nil {
		return "", nil, err
	}
	hosts, err = base.StrList(Type, args, 1)
	if err != nil {
		return "", nil, err
	}
	if len(hosts) == 0 {
		return "", nil, fmt.Errorf("mcast: empty replica set")
	}
	return gid, hosts, nil
}

// Service name conventions on the simulated fabric.
func ingestService(gid string) string { return "mcastrx-" + gid }
func seqService(gid string) string    { return "mcastseq-" + gid }
func repairService(gid string) string { return "mcastrepair-" + gid }

func ingestAddr(host, gid string) core.Addr {
	return core.Addr{Net: "sim", Host: host, Addr: host + ":" + ingestService(gid)}
}

func repairAddr(host, gid string) core.Addr {
	return core.Addr{Net: "sim", Host: host, Addr: host + ":" + repairService(gid)}
}

// Delivery is one operation delivered to the replica application in
// group order.
type Delivery struct {
	// Seq is the global sequence number.
	Seq uint64
	// Payload is the operation.
	Payload []byte
	// Reply answers the originating client. It is nil for operations
	// recovered via peer repair (the originator hears from the replicas
	// that received the multicast directly).
	Reply func(ctx context.Context, p []byte) error
	// Gap marks a sequence number that no replica could supply; the
	// payload is empty. Applications treat it as a no-op slot.
	Gap bool
}

// Impl is the shared implementation machinery; the variant controls the
// sequencer placement.
type Impl struct {
	base.Impl
	variant string // ImplSwitch or ImplHost

	mu     sync.Mutex
	groups map[string]*replicaGroup
}

// Register installs both variants (the host fallback is mandatory, §2);
// negotiation prefers the switch sequencer when the replica environment
// has a programmable switch, and falls back to the host sequencer
// otherwise. It returns (switchImpl, hostImpl).
func Register(reg *core.Registry) (*Impl, *Impl) {
	sw := RegisterSwitch(reg)
	host := RegisterHost(reg)
	return sw, host
}

// RegisterHost installs the host-sequencer fallback variant.
func RegisterHost(reg *core.Registry) *Impl {
	impl := newImpl(ImplHost, 0, core.LocUserspace)
	reg.MustRegister(impl)
	return impl
}

// RegisterSwitch installs the switch-sequencer variant.
func RegisterSwitch(reg *core.Registry) *Impl {
	impl := newImpl(ImplSwitch, 30, core.LocSwitch)
	reg.MustRegister(impl)
	return impl
}

func newImpl(name string, prio int, loc core.Location) *Impl {
	im := &Impl{variant: name, groups: map[string]*replicaGroup{}}
	im.ImplInfo = core.ImplInfo{
		Name:      name,
		Type:      Type,
		Endpoint:  spec.EndpointBoth,
		Priority:  prio,
		Location:  loc,
		Resources: core.Resources{TableEntries: 2},
	}
	im.InitFn = im.init
	im.ParamsFn = im.params
	im.WrapFn = im.wrap
	im.ValidateFn = func(args []wire.Value) error {
		_, _, err := decodeArgs(args)
		return err
	}
	return im
}

// Deliveries returns the ordered operation stream for a group on this
// replica. It is available after the first connection Init (or after
// calling EnsureReplica).
func (im *Impl) Deliveries(gid string) (<-chan Delivery, bool) {
	im.mu.Lock()
	defer im.mu.Unlock()
	g, ok := im.groups[gid]
	if !ok {
		return nil, false
	}
	return g.engine.out, true
}

// EnsureReplica sets up the replica-side machinery (ingest, repair,
// engine, and — for the leader or switch — the sequencer) without
// waiting for a client connection. Replica applications call it at
// startup.
func (im *Impl) EnsureReplica(env *core.Env, gid string, hosts []string) error {
	_, err := im.ensureGroup(env, gid, hosts)
	return err
}

// init sets up replica-side state when running on a replica host.
func (im *Impl) init(ctx context.Context, env *core.Env, args []wire.Value) error {
	gid, hosts, err := decodeArgs(args)
	if err != nil {
		return err
	}
	if _, ok := env.Lookup(EnvHost); !ok {
		return nil // client side
	}
	_, err = im.ensureGroup(env, gid, hosts)
	return err
}

// params publishes the client's send target: the switch group address or
// the leader's sequencer service address.
func (im *Impl) params(ctx context.Context, env *core.Env, args []wire.Value) ([]wire.Value, error) {
	gid, hosts, err := decodeArgs(args)
	if err != nil {
		return nil, err
	}
	switch im.variant {
	case ImplSwitch:
		swv, ok := env.Lookup(EnvSwitch)
		if !ok {
			return nil, fmt.Errorf("mcast: switch variant requires %s in the server environment", EnvSwitch)
		}
		sw, ok := swv.(*simnet.Switch)
		if !ok {
			return nil, fmt.Errorf("mcast: %s is %T, want *simnet.Switch", EnvSwitch, swv)
		}
		return []wire.Value{base.EncodeAddr(sw.GroupAddr(gid))}, nil
	default:
		return []wire.Value{base.EncodeAddr(core.Addr{
			Net: "sim", Host: hosts[0], Addr: hosts[0] + ":" + seqService(gid),
		})}, nil
	}
}

// wrap handles the per-connection server side (replica): ingest happens
// on the shared group services, so the negotiated connection is captive.
func (im *Impl) wrap(ctx context.Context, conn core.Conn, args, params []wire.Value, side core.Side, env *core.Env) (core.Conn, error) {
	if side == core.SideServer {
		// Nothing arrives here but retransmitted handshakes over lossy
		// links, which the tagged layer re-answers during the drain's
		// receives.
		c := core.NewCaptive(conn)
		c.Go(func(ctx context.Context) {
			for {
				if _, err := conn.Recv(ctx); err != nil {
					return
				}
			}
		})
		return c, nil
	}
	// Single-peer client connect: treat as a group of one.
	return im.WrapMulti(ctx, []core.Conn{conn}, args, params, side, env)
}

// WrapMulti builds the client's group connection.
func (im *Impl) WrapMulti(ctx context.Context, conns []core.Conn, args, params []wire.Value, side core.Side, env *core.Env) (core.Conn, error) {
	if len(params) < 1 {
		return nil, fmt.Errorf("mcast: missing sequencer address parameter")
	}
	target, err := base.DecodeAddr(params[0])
	if err != nil {
		return nil, fmt.Errorf("mcast: %w", err)
	}
	d := env.Dialer()
	if d == nil {
		return nil, fmt.Errorf("mcast: no dialer in environment")
	}
	send, err := d.Dial(ctx, target)
	if err != nil {
		return nil, fmt.Errorf("mcast: dial sequencer %s: %w", target, err)
	}
	mc := &clientConn{group: conns}
	mc.TransformConn = core.WrapTransform(send, groupFrame{stripCID: im.variant == ImplSwitch}, DecodeDroppedCounter)
	return mc, nil
}

// clientConn is the client's ordered-multicast connection: Send
// multicasts one operation through the sequencer; Recv returns replica
// responses. Its datapath is the groupFrame transform over the
// connection to the sequencer.
type clientConn struct {
	*core.TransformConn
	group []core.Conn
	once  sync.Once
}

// DecodeDroppedCounter counts replies too short for the header the
// switch variant puts on them, in the process telemetry registry.
const DecodeDroppedCounter = "chunnel/mcast/decode_dropped"

// groupFrame is the client's header: the frame header on the way out,
// and on the way back the client id the switch variant's replicas lead
// their replies with.
type groupFrame struct{ stripCID bool }

func (groupFrame) Overhead() int { return frameHeader }

// Encode prepends the (zeroed) frame header into b's headroom; seq and
// cid are filled along the path.
func (groupFrame) Encode(b *wire.Buf) error {
	hdr := b.Prepend(frameHeader)
	for i := range hdr {
		hdr[i] = 0
	}
	return nil
}

func (f groupFrame) Decode(b *wire.Buf) (bool, error) {
	if f.stripCID {
		if b.Len() < 8 {
			return false, fmt.Errorf("mcast: short reply (%d bytes)", b.Len())
		}
		b.TrimFront(8)
	}
	return true, nil
}

func (c *clientConn) Close() error {
	c.once.Do(func() {
		c.TransformConn.Close()
		for _, g := range c.group {
			g.Close()
		}
	})
	return nil
}

func putU64(b []byte, off int, v uint64) { binary.LittleEndian.PutUint64(b[off:off+8], v) }
func getU64(b []byte, off int) uint64    { return binary.LittleEndian.Uint64(b[off : off+8]) }
