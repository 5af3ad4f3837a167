package transport

import (
	"sync"

	"github.com/bertha-net/bertha/internal/telemetry"
)

// netCounters holds one transport kind's datagram counters, resolved
// once per kind from the process telemetry registry so the data path
// never touches a map: sends and receives are single atomic adds.
type netCounters struct {
	sent  *telemetry.Counter
	recvd *telemetry.Counter
	// dropped counts every datagram discarded by the demux path — legal
	// under datagram semantics, but visible. The reason counters below
	// partition it.
	dropped *telemetry.Counter
	// acceptDropped counts new peers discarded because the accept
	// backlog was full (the peer's first datagram is lost; its
	// retransmission re-materializes the connection).
	acceptDropped *telemetry.Counter
	// droppedQueueFull counts datagrams discarded at a full
	// per-connection receive ring (head-of-line pressure on a slow
	// consumer).
	droppedQueueFull *telemetry.Counter
	// droppedMalformed counts datagrams the receive paths rejected on
	// sight: oversized, truncated by the receive buffer, or carrying an
	// unparseable source address.
	droppedMalformed *telemetry.Counter
	// sendSyscalls and recvSyscalls count the system calls the datagram
	// paths complete (one per call that moved data or failed; EAGAIN and
	// EINTR retries are not counted), so datagrams_sent / send_syscalls
	// is the realized send batching: 1 on single sends, the burst size
	// on sendmmsg, the segment count on a GSO sendmsg.
	sendSyscalls *telemetry.Counter
	recvSyscalls *telemetry.Counter
	// gsoFallbacks counts bursts whose UDP_SEGMENT sendmsg the kernel
	// rejected and that were replayed through sendmmsg instead.
	gsoFallbacks *telemetry.Counter
	// groTrains counts receives that took a UDP GRO train — several
	// datagrams in one buffer — off the socket (gro.go), so
	// recv_syscalls against datagrams_recvd shows the receive batching.
	groTrains *telemetry.Counter
	// socketsOpened and socketsClosed count the sockets a dialed
	// connection opens and closes (socketConn), and peersOpened the
	// connections a listener's reactor makes for a new peer, so a test
	// can hold a unit of work to the kernel objects it costs.
	socketsOpened *telemetry.Counter
	socketsClosed *telemetry.Counter
	peersOpened   *telemetry.Counter
}

var (
	netCountersMu sync.Mutex
	netCountersBy = map[string]*netCounters{}
)

// countersFor returns the shared counters for a transport kind ("udp",
// "unix", "pipe"), creating them in telemetry.Default() on first use.
// Call at connection setup, never per datagram.
func countersFor(netName string) *netCounters {
	netCountersMu.Lock()
	defer netCountersMu.Unlock()
	c, ok := netCountersBy[netName]
	if !ok {
		reg := telemetry.Default()
		prefix := "transport/" + netName + "/"
		c = &netCounters{
			sent:             reg.Counter(prefix + "datagrams_sent"),
			recvd:            reg.Counter(prefix + "datagrams_recvd"),
			dropped:          reg.Counter(prefix + "datagrams_dropped"),
			acceptDropped:    reg.Counter(prefix + "accept_dropped"),
			droppedQueueFull: reg.Counter(prefix + "datagrams_dropped_queue_full"),
			droppedMalformed: reg.Counter(prefix + "datagrams_dropped_malformed"),
			sendSyscalls:     reg.Counter(prefix + "send_syscalls"),
			recvSyscalls:     reg.Counter(prefix + "recv_syscalls"),
			gsoFallbacks:     reg.Counter(prefix + "gso_fallbacks"),
			groTrains:        reg.Counter(prefix + "gro_trains"),
			socketsOpened:    reg.Counter(prefix + "sockets_opened"),
			socketsClosed:    reg.Counter(prefix + "sockets_closed"),
			peersOpened:      reg.Counter(prefix + "peers_opened"),
		}
		netCountersBy[netName] = c
	}
	return c
}

// Live reactor listeners, aggregated into process-wide gauges in
// /debug/bertha: connection, goroutine, ring-occupancy, and
// memory-per-connection accounting for every reactor in the process,
// plus per-shard connection counts. Registration happens when a
// listener starts its reactor; the probes read the set at snapshot
// time.
var (
	reactorsMu        sync.Mutex
	reactors          = map[*reactorListener]struct{}{}
	reactorProbesOnce sync.Once
	// reactorShardGauges is how many per-shard gauges are published.
	shardGaugesMu      sync.Mutex
	reactorShardGauges int
)

// reactorAgg is the process-wide rollup across live reactors.
type reactorAgg struct {
	conns, goroutines, ringOccupied, connMem int64
}

func reactorTotals() (agg reactorAgg) {
	reactorsMu.Lock()
	ls := make([]*reactorListener, 0, len(reactors))
	for l := range reactors {
		ls = append(ls, l)
	}
	reactorsMu.Unlock()
	for _, l := range ls {
		st := l.ReactorStats()
		agg.conns += st.Conns
		agg.goroutines += st.Goroutines
		agg.ringOccupied += st.RingOccupied
		agg.connMem += st.ConnMemBytes
	}
	return agg
}

// shardConnsAcross sums shard idx's connection count across live
// reactors.
func shardConnsAcross(idx int) int64 {
	reactorsMu.Lock()
	ls := make([]*reactorListener, 0, len(reactors))
	for l := range reactors {
		ls = append(ls, l)
	}
	reactorsMu.Unlock()
	var n int64
	for _, l := range ls {
		st := l.ReactorStats()
		if idx < len(st.ShardConns) {
			n += st.ShardConns[idx]
		}
	}
	return n
}

// registerReactor adds a started listener to the accounting set and
// (first time through) publishes the process-wide reactor gauges.
func registerReactor(l *reactorListener) {
	reactorProbesOnce.Do(func() {
		reg := telemetry.Default()
		reg.RegisterGaugeProbe("transport/reactor/conns", func() int64 {
			return reactorTotals().conns
		})
		reg.RegisterGaugeProbe("transport/reactor/goroutines", func() int64 {
			return reactorTotals().goroutines
		})
		reg.RegisterGaugeProbe("transport/reactor/ring_occupied", func() int64 {
			return reactorTotals().ringOccupied
		})
		reg.RegisterGaugeProbe("transport/reactor/conn_mem_bytes", func() int64 {
			return reactorTotals().connMem
		})
		reg.RegisterGaugeProbe("transport/reactor/mem_per_conn_bytes", func() int64 {
			a := reactorTotals()
			if a.conns == 0 {
				return 0
			}
			return a.connMem / a.conns
		})
	})
	reactorsMu.Lock()
	reactors[l] = struct{}{}
	reactorsMu.Unlock()
	// Not under reactorsMu: a snapshot holds the registry lock while its
	// probes take reactorsMu, so registering a probe under reactorsMu
	// would close a lock-order cycle.
	shardGaugesMu.Lock()
	defer shardGaugesMu.Unlock()
	for ; reactorShardGauges < l.cfg.Shards; reactorShardGauges++ {
		idx := reactorShardGauges
		telemetry.Default().RegisterGaugeProbe(shardGaugeName(idx), func() int64 {
			return shardConnsAcross(idx)
		})
	}
}

func unregisterReactor(l *reactorListener) {
	reactorsMu.Lock()
	delete(reactors, l)
	reactorsMu.Unlock()
}

// shardGaugeName renders "transport/reactor/shard/<i>/conns" without
// fmt (this runs at listener start, not on a hot path, but stays
// dependency-light).
func shardGaugeName(i int) string {
	digits := [20]byte{}
	pos := len(digits)
	n := i
	for {
		pos--
		digits[pos] = byte('0' + n%10)
		n /= 10
		if n == 0 {
			break
		}
	}
	return "transport/reactor/shard/" + string(digits[pos:]) + "/conns"
}
