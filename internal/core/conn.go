// Package core implements the Bertha runtime: the data-plane interfaces
// chunnels compose over, the implementation registry, the connection
// negotiation protocol (§4.3), implementation selection policy, and the
// Chunnel-DAG optimizer (§6).
//
// The layering follows the paper's architecture:
//
//   - Applications declare a Chunnel DAG (package spec) and create an
//     Endpoint with it.
//   - Fallback implementations are registered with the local Registry when
//     the application launches (Listing 5 line 2); accelerated
//     implementations are registered with the discovery service (§4.2) by
//     offload developers and operators.
//   - When a connection is established, the runtime queries discovery,
//     exchanges DAGs and capabilities with the peer, and binds each
//     chunnel type to an implementation using an operator policy (§4.3).
//   - The selected implementations wrap the base transport connection,
//     outermost chunnel first, producing the connection handed to the
//     application.
package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
)

// Addr identifies a connection endpoint across the transports Bertha
// composes over (UDP, UNIX sockets, in-process pipes, the simulated
// fabric). Host carries a host identity independent of the network address
// so chunnels can make locality decisions (e.g. the local fast-path
// chunnel of Listing 1 checks whether both endpoints share a host).
type Addr struct {
	// Net names the transport: "udp", "unix", "pipe", or "sim".
	Net string
	// Host identifies the machine (not the interface). Two endpoints with
	// equal non-empty Host values are host-local to each other.
	Host string
	// Addr is the transport-specific address string (e.g. "127.0.0.1:4242"
	// or "/tmp/bertha.sock"). The transport owns its format, which may
	// hold bytes that do not print: a unix listener's names its network
	// namespace after a NUL, and an abstract unix name starts with one.
	Addr string
}

// String renders the address as net://host/addr, a NUL in addr as \x00.
func (a Addr) String() string {
	return fmt.Sprintf("%s://%s/%s", a.Net, a.Host, strings.ReplaceAll(a.Addr, "\x00", `\x00`))
}

// IsZero reports whether the address is unset.
func (a Addr) IsZero() bool { return a == Addr{} }

// SameHost reports whether two addresses identify endpoints on the same
// machine. Unknown (empty) hosts are never considered local.
func (a Addr) SameHost(b Addr) bool {
	return a.Host != "" && a.Host == b.Host
}

// Conn is a connected, datagram-oriented connection: the unit chunnels
// wrap. Send transmits one message; Recv returns one whole message.
// Message boundaries are preserved by every transport and chunnel.
//
// Buffer ownership convention (every implementation must honor it):
//
//   - Send borrows p for the duration of the call only. The
//     implementation must not retain p (or any sub-slice of it) after
//     Send returns; if it needs the bytes later — retransmission
//     queues, background writers — it must copy them. The caller is
//     free to reuse or pool p immediately after Send returns.
//   - Recv returns a slice owned exclusively by the caller: it must not
//     alias an internal buffer that the connection will reuse, and the
//     caller may hold it indefinitely.
//
// Connections that additionally implement BufConn expose a zero-copy
// path with explicit ownership transfer; see BufConn.
//
// Implementations must allow concurrent Send and Recv calls, and must
// unblock pending calls with an error when Close is called.
type Conn interface {
	// Send transmits one message. It may block for flow control and
	// honors ctx cancellation. It must not retain p after returning.
	Send(ctx context.Context, p []byte) error
	// Recv returns the next message. The returned slice is owned by the
	// caller. It honors ctx cancellation and returns ErrClosed after
	// Close.
	Recv(ctx context.Context) ([]byte, error)
	// LocalAddr returns the local endpoint address.
	LocalAddr() Addr
	// RemoteAddr returns the peer endpoint address. For multi-peer
	// connections it returns the canonical (first) peer.
	RemoteAddr() Addr
	// Close releases the connection. It is idempotent.
	Close() error
}

// Listener accepts per-peer connections on a bound address.
type Listener interface {
	// Accept blocks until a new peer connects and returns a Conn for it.
	Accept(ctx context.Context) (Conn, error)
	// Addr returns the bound address.
	Addr() Addr
	// Close stops accepting; pending Accepts return ErrClosed.
	Close() error
}

// Dialer opens new base-transport connections. The runtime provides one to
// chunnel implementations (through Env) so that implementations like
// client-side sharding can open connections to additional endpoints.
type Dialer interface {
	Dial(ctx context.Context, addr Addr) (Conn, error)
}

// DialerFunc adapts a function to the Dialer interface.
type DialerFunc func(ctx context.Context, addr Addr) (Conn, error)

// Dial implements Dialer.
func (f DialerFunc) Dial(ctx context.Context, addr Addr) (Conn, error) {
	return f(ctx, addr)
}

// Side distinguishes the connecting endpoint from the listening endpoint
// during negotiation and wrapping.
type Side uint8

// Side values.
const (
	// SideClient is the connecting endpoint.
	SideClient Side = iota
	// SideServer is the listening endpoint.
	SideServer
)

// String returns "client" or "server".
func (s Side) String() string {
	if s == SideClient {
		return "client"
	}
	return "server"
}

// MaxMessage is the largest message a chunnel that buffers whole
// messages agrees to carry (framing's reassembly, compress's inflation):
// the one bound on what bytes from the network may make a receiver
// allocate.
const MaxMessage = 4 << 20

// Common errors.
var (
	// ErrClosed is returned by operations on a closed Conn or Listener.
	ErrClosed = errors.New("bertha: connection closed")
	// ErrMessageTooLarge is returned when a message exceeds a transport's
	// maximum datagram size.
	ErrMessageTooLarge = errors.New("bertha: message too large")
	// ErrNegotiation wraps connection-establishment failures (§4.3: "the
	// connection fails in the absence of the implementations").
	ErrNegotiation = errors.New("bertha: negotiation failed")
	// ErrNoImplementation indicates a chunnel type in the DAG had no
	// usable implementation at any endpoint.
	ErrNoImplementation = errors.New("bertha: no usable chunnel implementation")
	// ErrIncompatibleSpecs indicates the two endpoints declared
	// conflicting non-empty Chunnel DAGs.
	ErrIncompatibleSpecs = errors.New("bertha: endpoint chunnel DAGs are incompatible")
	// ErrNoFallback indicates a chunnel type was used without a registered
	// host-fallback implementation (§2 requires one).
	ErrNoFallback = errors.New("bertha: chunnel type has no host fallback implementation")
)
