// Package simnet is an in-memory network fabric: named hosts attached to
// switches over FIFO links with configurable latency and loss, and
// switches carrying match-action pipelines that can host in-network
// chunnel offloads (shard steering, multicast sequencing).
//
// It substitutes for the paper's hardware testbed (DESIGN.md §1): the
// Tofino-class programmable switch becomes a Switch with a bounded
// match-action table that chunnel implementations program during Init —
// the same architectural slot, with resource accounting that feeds the
// discovery service's claim mechanism.
//
// Addresses use network "sim": sim://<host>/<host>:<service>.
package simnet

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/telemetry/tracing"
)

// Packet is one in-flight datagram.
type Packet struct {
	Src, Dst core.Addr
	Payload  []byte
}

// clone deep-copies the packet (actions may rewrite).
func (p Packet) clone() Packet {
	buf := make([]byte, len(p.Payload))
	copy(buf, p.Payload)
	return Packet{Src: p.Src, Dst: p.Dst, Payload: buf}
}

// Network is the fabric: hosts, switches, and the links between them.
type Network struct {
	mu       sync.Mutex
	hosts    map[string]*Host
	switches map[string]*Switch
	closed   bool

	// spans, when set via EnableTracing, receives per-switch forwarding
	// spans for sampled traced frames.
	spans *tracing.SpanRing
}

// New returns an empty network.
func New() *Network {
	return &Network{hosts: map[string]*Host{}, switches: map[string]*Switch{}}
}

// Close tears down all hosts, switches, and links.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	hosts := make([]*Host, 0, len(n.hosts))
	for _, h := range n.hosts {
		hosts = append(hosts, h)
	}
	switches := make([]*Switch, 0, len(n.switches))
	for _, s := range n.switches {
		switches = append(switches, s)
	}
	n.mu.Unlock()
	for _, h := range hosts {
		h.close()
	}
	for _, s := range switches {
		s.close()
	}
}

// AddSwitch creates a switch with the given match-action table capacity
// (entries). Capacity gates offload installation: a chunnel whose entries
// do not fit falls back to software (§2, §6 "the switch only has capacity
// for one").
func (n *Network) AddSwitch(name string, tableCapacity int) (*Switch, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.switches[name]; dup {
		return nil, fmt.Errorf("simnet: switch %q exists", name)
	}
	s := &Switch{
		net:      n,
		name:     name,
		capacity: tableCapacity,
		groups:   map[string][]core.Addr{},
		inbox:    make(chan Packet, 8192),
		done:     make(chan struct{}),
	}
	n.switches[name] = s
	if n.spans != nil {
		s.setTraceRing(n.spans)
	}
	go s.forwardLoop()
	return s, nil
}

// LinkConfig describes a host's uplink to its switch.
type LinkConfig struct {
	// Latency is the one-way host↔switch propagation delay.
	Latency time.Duration
	// Bandwidth is the link rate in bytes per second; each packet adds
	// a serialization delay of len/Bandwidth and packets queue FIFO
	// behind each other's transmission. Zero means infinite bandwidth.
	Bandwidth int64
	// LossProb is the probability a packet is dropped on this link.
	LossProb float64
	// Seed makes loss deterministic.
	Seed int64
}

// AddHost creates a host attached to sw.
func (n *Network) AddHost(name string, sw *Switch, cfg LinkConfig) (*Host, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.hosts[name]; dup {
		return nil, fmt.Errorf("simnet: host %q exists", name)
	}
	h := &Host{
		net:      n,
		name:     name,
		sw:       sw,
		services: map[string]*svcListener{},
		done:     make(chan struct{}),
	}
	h.up = newWire(cfg, sw.deliverFromHost)
	h.down = newWire(cfg, h.deliver)
	n.hosts[name] = h
	return h, nil
}

func (n *Network) host(name string) (*Host, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	h, ok := n.hosts[name]
	return h, ok
}

// wire is a FIFO delay line: packets emerge in send order after their
// serialization delay (len/bandwidth, queued behind earlier packets)
// plus the propagation latency, with probabilistic loss.
type wire struct {
	cfg     LossySchedule
	deliver func(Packet)
	ch      chan timedPacket
	done    chan struct{}
	once    sync.Once

	txMu       sync.Mutex
	bandwidth  int64
	lastDepart time.Time
}

// LossySchedule bundles latency and seeded loss.
type LossySchedule struct {
	Latency time.Duration
	Loss    float64
	rng     *rand.Rand
	mu      sync.Mutex
}

func (s *LossySchedule) drop() bool {
	if s.Loss <= 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rng.Float64() < s.Loss
}

type timedPacket struct {
	at  time.Time
	pkt Packet
}

func newWire(cfg LinkConfig, deliver func(Packet)) *wire {
	w := &wire{
		cfg:       LossySchedule{Latency: cfg.Latency, Loss: cfg.LossProb, rng: rand.New(rand.NewSource(cfg.Seed))},
		deliver:   deliver,
		ch:        make(chan timedPacket, 8192),
		done:      make(chan struct{}),
		bandwidth: cfg.Bandwidth,
	}
	go w.run()
	return w
}

// spinThreshold is how much of each delay is busy-waited: Go timers
// carry platform slack on the order of a millisecond, which would
// swamp sub-millisecond link latencies. Sleeping the bulk and spinning
// the tail keeps delivery times accurate to a few microseconds.
const spinThreshold = 500 * time.Microsecond

// run delivers the wire's packets in order, each at its time. One timer
// serves every delayed packet.
func (w *wire) run() {
	sleep := time.NewTimer(time.Hour)
	for {
		select {
		case tp := <-w.ch:
			if d := time.Until(tp.at); d > 0 {
				if d > spinThreshold {
					sleep.Reset(d - spinThreshold)
					select {
					case <-sleep.C:
					case <-w.done:
						return
					}
				}
				for time.Now().Before(tp.at) {
					runtime.Gosched()
				}
			}
			w.deliver(tp.pkt)
		case <-w.done:
			return
		}
	}
}

func (w *wire) send(pkt Packet) {
	if w.cfg.drop() {
		return
	}
	now := time.Now()
	depart := now
	if w.bandwidth > 0 {
		tx := time.Duration(int64(len(pkt.Payload)) * int64(time.Second) / w.bandwidth)
		w.txMu.Lock()
		start := now
		if w.lastDepart.After(start) {
			start = w.lastDepart // queue behind the packet ahead
		}
		depart = start.Add(tx)
		w.lastDepart = depart
		w.txMu.Unlock()
	}
	select {
	case w.ch <- timedPacket{at: depart.Add(w.cfg.Latency), pkt: pkt}:
	default: // wire saturated: drop (datagram semantics)
	}
}

func (w *wire) close() { w.once.Do(func() { close(w.done) }) }
