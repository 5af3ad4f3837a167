package transport

import (
	"fmt"
	"net"

	"github.com/bertha-net/bertha/internal/core"
)

// UDPPair returns two mutually connected loopback UDP connections. Both
// ends are connected sockets reading with Read rather than ReadFrom, so
// neither pays the demultiplexing listener's per-datagram source-address
// allocation — this is the transport the zero-allocation data-plane
// benchmarks and tests build on. hostA and hostB label the two ends'
// hosts for locality checks.
func UDPPair(hostA, hostB string) (core.Conn, core.Conn, error) {
	var err error
	// Ports are reserved by binding and released just before the
	// connected re-bind; retry the (tiny) window where another process
	// could steal one.
	for attempt := 0; attempt < 5; attempt++ {
		var a, b core.Conn
		a, b, err = udpPairOnce(hostA, hostB)
		if err == nil {
			return a, b, nil
		}
	}
	return nil, nil, fmt.Errorf("transport: udp pair: %w", err)
}

func udpPairOnce(hostA, hostB string) (core.Conn, core.Conn, error) {
	loop := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}
	ra, err := net.ListenUDP("udp", loop)
	if err != nil {
		return nil, nil, err
	}
	rb, err := net.ListenUDP("udp", loop)
	if err != nil {
		ra.Close()
		return nil, nil, err
	}
	addrA := ra.LocalAddr().(*net.UDPAddr)
	addrB := rb.LocalAddr().(*net.UDPAddr)
	ra.Close()
	rb.Close()

	ca, err := net.DialUDP("udp", addrA, addrB)
	if err != nil {
		return nil, nil, err
	}
	cb, err := net.DialUDP("udp", addrB, addrA)
	if err != nil {
		ca.Close()
		return nil, nil, err
	}
	mk := func(c *net.UDPConn, host, peerHost string) *socketConn {
		s := &socketConn{
			local:  core.Addr{Net: "udp", Host: host, Addr: c.LocalAddr().String()},
			remote: core.Addr{Net: "udp", Host: peerHost, Addr: c.RemoteAddr().String()},
			tel:    countersFor("udp"),
		}
		s.attach(c)
		return s
	}
	return mk(ca, hostA, hostB), mk(cb, hostB, hostA), nil
}
