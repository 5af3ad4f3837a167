// Package transport exposes Bertha's base transports: the connections a
// chunnel stack composes over. Applications create a base listener or
// connection here and hand it to bertha.Endpoint.Listen / Connect.
package transport

import (
	itransport "github.com/bertha-net/bertha/internal/transport"
)

// MaxDatagram is the largest message the socket transports accept.
const MaxDatagram = itransport.MaxDatagram

// Socket transports (real kernel sockets).
var (
	// ListenUDP binds a demultiplexing UDP listener ("127.0.0.1:0" for
	// an ephemeral port). hostID labels the host for locality decisions.
	ListenUDP = itransport.ListenUDP
	// DialUDP returns a UDP datagram connection to an address. Only the
	// address is resolved at the dial, and a resolution error is
	// DialUDP's; the socket is opened, and connected, on first use — the
	// first send, receive or LocalAddr — which returns the error when
	// that fails. A connection closed unused never opens one.
	DialUDP = itransport.DialUDP
	// ListenUnix binds a UNIX datagram listener at a socket path. Its
	// Addr().Addr is the path, followed by a NUL and the listener's
	// network namespace where that is known.
	ListenUnix = itransport.ListenUnix
	// DialUnix opens a connected UNIX datagram connection to a
	// listener's Addr().Addr or a bare socket path. A client in the
	// listener's network namespace binds an abstract name, any other a
	// socket file beside the listener's.
	DialUnix = itransport.DialUnix
)

// In-process transports (tests, single-process deployments).
var (
	// Pipe returns a connected in-process pair.
	Pipe = itransport.Pipe
	// NewPipeNetwork returns an in-process network of named listeners.
	NewPipeNetwork = itransport.NewPipeNetwork
	// Lossy wraps a connection with drops/dups/reordering for testing.
	Lossy = itransport.Lossy
)

// Aliased types.
type (
	// PipeNetwork is an in-process datagram network.
	PipeNetwork = itransport.PipeNetwork
	// MultiDialer routes Dial calls by address network.
	MultiDialer = itransport.MultiDialer
	// LossConfig parameterizes a Lossy wrapper.
	LossConfig = itransport.LossConfig
)
