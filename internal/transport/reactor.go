package transport

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/wire"
)

// The sharded reactor runtime: the receive datapath of every demuxing
// datagram listener. N reactor goroutines (core.ReactorConfig.Shards)
// drain the shared kernel socket — through recvmmsg bursts on linux,
// single reads elsewhere — and demultiplex each datagram by source
// address into a sharded connection table, delivering into the target
// connection's bounded ring (ring.go). Connections own no goroutines:
// the listener's goroutine count is O(shards) however many peers the
// socket carries, which is what lets one socket serve 100k+ logical
// connections without scheduler collapse.
//
// Concurrency notes. Reads on one fd serialize on the runtime poller's
// internal read lock, so the shards alternate taking bursts off the
// socket rather than reading truly in parallel; what the sharding buys
// is running the demux work — address hashing, table lookup, ring
// delivery, wakeups — outside that lock and spread across cores, plus
// shard-local buffer pools. The connection table is per-shard
// open-addressing with atomic entry loads on the hot lookup; the shard
// mutex is taken only to insert, remove, or grow.

// reactorPoolCap bounds each shard's local buffer cache (LocalPool).
const reactorPoolCap = 256

// acceptBacklog is the accept-queue capacity, unchanged from the
// pre-reactor demux listener. New peers materializing while it is full
// are dropped and counted (transport/<net>/accept_dropped); the peer's
// retransmission re-creates the connection.
const acceptBacklog = 128

// packetConn abstracts net.UDPConn and net.UnixConn for the shared
// demultiplexing listener.
type packetConn interface {
	ReadFrom(b []byte) (int, net.Addr, error)
	WriteTo(b []byte, addr net.Addr) (int, error)
	Close() error
	LocalAddr() net.Addr
	SetReadDeadline(t time.Time) error
}

// addrPortPacketConn is the allocation-free demux fast path: sources
// are identified by netip.AddrPort values, so the per-datagram receive
// performs no net.Addr or key-string allocation. *net.UDPConn rides it
// via udpPC.
type addrPortPacketConn interface {
	packetConn
	ReadFromAddrPort(p []byte) (int, netip.AddrPort, error)
	WriteToAddrPort(p []byte, ap netip.AddrPort) (int, error)
}

// udpPC adapts *net.UDPConn to addrPortPacketConn.
type udpPC struct{ *net.UDPConn }

func (u udpPC) ReadFromAddrPort(p []byte) (int, netip.AddrPort, error) {
	return u.ReadFromUDPAddrPort(p)
}

func (u udpPC) WriteToAddrPort(p []byte, ap netip.AddrPort) (int, error) {
	return u.WriteToUDPAddrPort(p, ap)
}

// ReactorListener is what a reactor listener offers beyond core.Listener:
// epoll-style edge-triggered connection readiness per shard
// (core.ReadyListener, where the protocol is written down), so a server
// can serve every connection with O(shards) worker goroutines instead of
// one blocked receiver per connection — core.Serve is that server — and
// the runtime's accounting.
type ReactorListener interface {
	core.ReadyListener
	core.ReactorAccountant
}

// peerKey identifies a demultiplexed peer: an AddrPort on the fast
// path, the address's string form otherwise. Exactly one field is set.
type peerKey struct {
	ap netip.AddrPort
	s  string
}

func (k peerKey) String() string {
	if k.s != "" {
		return k.s
	}
	return k.ap.String()
}

// hash is FNV-1a over the key's bytes. Peers hash to table shards with
// it; within a shard it doubles as the probe start.
func (k peerKey) hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	if k.s != "" {
		for i := 0; i < len(k.s); i++ {
			h = (h ^ uint64(k.s[i])) * prime64
		}
		return h
	}
	a := k.ap.Addr().As16()
	for _, c := range a {
		h = (h ^ uint64(c)) * prime64
	}
	p := k.ap.Port()
	h = (h ^ uint64(p&0xff)) * prime64
	h = (h ^ uint64(p>>8)) * prime64
	return h
}

// newDemuxListener builds a reactor listener over pc. The reactor
// goroutines start lazily on the first Accept/Ready call, so
// ConfigureReactor (via core.WithReactor) can still adjust the shape.
func newDemuxListener(pc packetConn, addr core.Addr) *reactorListener {
	l := &reactorListener{
		pc:     pc,
		addr:   addr,
		tel:    countersFor(addr.Net),
		accept: make(chan *reactorConn, acceptBacklog),
		closed: make(chan struct{}),
	}
	if apc, ok := pc.(addrPortPacketConn); ok {
		l.apc = apc
	}
	switch p := pc.(type) {
	case udpPC:
		l.sock = p.UDPConn
	case unixPC:
		l.sock = p.UnixConn
	}
	return l
}

// reactorListener demultiplexes one datagram socket into per-peer
// core.Conns on the sharded reactor runtime: the datagram analog of
// accept(), scaled past goroutine-per-peer.
type reactorListener struct {
	pc  packetConn
	apc addrPortPacketConn // non-nil: allocation-free source addressing
	// sock is the socket's raw side (*net.UDPConn or *net.UnixConn): on
	// linux the reactors receive from it with recvmmsg into reused
	// sockaddr storage, and sends to a unix peer and bursts go out
	// through it with raw sendto/sendmmsg.
	sock syscall.Conn
	addr core.Addr
	tel  *netCounters

	cfg       core.ReactorConfig
	startOnce sync.Once
	started   atomic.Bool
	// readiness is set by the first Ready call. Until then deliveries
	// post no readiness edges: a listener served through Accept alone
	// has nobody to pop them, and a queued edge keeps its connection —
	// ring and all — reachable long after Close.
	readiness atomic.Bool
	readyOnce sync.Once

	shards []*reactorShard
	accept chan *reactorConn
	closed chan struct{}
	once   sync.Once
	wg     sync.WaitGroup // the reactor goroutines, joined by Close

	// send is the listener's burst-send state (reactorConn.SendBufs):
	// one per listener, shared by its connections under sendMu — never
	// per connection — and created by the first burst.
	sendMu sync.Mutex
	send   *reactorSend

	// reoffer is set on a unix listener: a closing peer's unread
	// datagrams become a new peer instead of being released
	// (reofferUnread), and a peer can be parked (reactorConn.Park).
	reoffer bool

	goroutines atomic.Int64
}

// reactorShard is one slice of the runtime: a table shard, its ready
// queue, and the shard's connection count. Reactor goroutine i also
// owns LocalPool i, created in its loop.
type reactorShard struct {
	table peerTable
	ready readyQueue
	conns atomic.Int64
}

// ConfigureReactor implements core.ReactorConfigurer. It must run
// before the listener starts serving (Endpoint.Listen applies it
// immediately after the base listener is constructed).
func (l *reactorListener) ConfigureReactor(cfg core.ReactorConfig) error {
	if l.started.Load() {
		return fmt.Errorf("transport: reactor already started")
	}
	l.cfg = cfg
	return nil
}

// start spins up the reactor goroutines (idempotent). Datagrams
// arriving beforehand wait in the kernel socket buffer, so lazy start
// loses nothing.
func (l *reactorListener) start() {
	l.startOnce.Do(func() {
		l.cfg.Fill()
		l.started.Store(true)
		l.shards = make([]*reactorShard, l.cfg.Shards)
		for i := range l.shards {
			l.shards[i] = &reactorShard{}
			l.shards[i].ready.ch = make(chan struct{}, 1)
		}
		registerReactor(l)
		for i := 0; i < l.cfg.Shards; i++ {
			l.goroutines.Add(1)
			l.wg.Add(1)
			go l.run()
		}
	})
}

// run is one reactor goroutine: burst receive where the platform and
// socket support it, single reads otherwise. Exits when the socket
// closes.
func (l *reactorListener) run() {
	defer l.wg.Done()
	defer l.goroutines.Add(-1)
	pool := wire.NewLocalPool(wire.DefaultHeadroom, recvSlot, reactorPoolCap)
	defer pool.Drain()
	if l.sock != nil && batchRecvSupported && l.runBurst(pool) {
		return
	}
	l.runSingle(pool)
}

// runSingle is the portable receive loop: one datagram per read.
func (l *reactorListener) runSingle(pool *wire.LocalPool) {
	for {
		b := pool.Get()
		var (
			n    int
			err  error
			key  peerKey
			from net.Addr
		)
		if l.apc != nil {
			var ap netip.AddrPort
			n, ap, err = l.apc.ReadFromAddrPort(b.Bytes())
			key = peerKey{ap: ap}
		} else {
			n, from, err = l.pc.ReadFrom(b.Bytes())
			if err == nil {
				key = peerKey{s: peerName(from)}
			}
		}
		l.tel.recvSyscalls.Inc()
		if err != nil {
			pool.Put(b)
			select {
			case <-l.closed:
				return
			default:
			}
			if isClosedErr(err) {
				l.shutdown() // not Close: a reactor cannot join itself
				return
			}
			continue // transient error (e.g. ICMP-induced)
		}
		if n > MaxDatagram {
			// Truncated by our own read buffer: the sender violated the
			// datagram ceiling. Malformed, not queue pressure.
			pool.Put(b)
			l.tel.dropped.Inc()
			l.tel.droppedMalformed.Inc()
			continue
		}
		b.Truncate(n)
		l.tel.recvd.Inc()
		one := [1]*wire.Buf{b} //bertha:transfers deliver consumes every element
		l.deliver(key, from, one[:], pool)
	}
}

// peerName is the name a peer's datagrams came from, as the portable
// receive loop keys and reports it. The net package writes an abstract
// unix name with a leading '@' where the socket address holds a NUL; the
// name keeps the NUL, as the linux receive path reads sun_path, so a
// peer has one name on every platform. The mapping is never ambiguous:
// ListenUnix refuses a relative path that starts with '@', and a
// client's file lies beside the listener's.
func peerName(from net.Addr) string {
	s := from.String()
	if _, ok := from.(*net.UnixAddr); ok && strings.HasPrefix(s, "@") {
		return "\x00" + s[1:]
	}
	return s
}

// deliver routes datagrams received from one peer — one, or a GRO
// train's, oldest first — to its connection's ring, materializing the
// connection on first contact, and wakes the connection once. It
// consumes every element of bs on every path and leaves bs's elements
// nil.
func (l *reactorListener) deliver(key peerKey, from net.Addr, bs []*wire.Buf, pool *wire.LocalPool) {
	sh := l.shards[key.hash()%uint64(len(l.shards))]
	c := sh.table.lookup(key)
	if c == nil {
		c = l.materialize(sh, key, from)
		if c == nil {
			// No connection for this peer (the client retries).
			for i, b := range bs {
				pool.Put(b)
				bs[i] = nil
			}
			l.tel.dropped.Add(uint64(len(bs)))
			return
		}
	}
	pushed := false
	for i, b := range bs {
		bs[i] = nil
		if !c.ring.push(b) {
			// Ring full: push released the buffer (datagram semantics).
			l.tel.dropped.Inc()
			l.tel.droppedQueueFull.Inc()
			continue
		}
		pushed = true
	}
	if !pushed {
		return
	}
	if c.closedFlag.Load() {
		// The push raced Close's drain; sweep what it may have missed.
		if l.reoffer {
			l.reofferUnread(c)
		} else {
			c.drain()
		}
		return
	}
	if l.reoffer && c.parked.CompareAndSwap(true, false) && !l.offer(c) {
		return // a parked peer's datagram found no room on the accept queue
	}
	c.wake(sh)
}

// materialize creates (or, racing another reactor, finds) the
// connection for a new peer and offers it to the accept queue. A full
// backlog retracts the connection and reports nil; so does a listener
// that is shutting down.
func (l *reactorListener) materialize(sh *reactorShard, key peerKey, from net.Addr) *reactorConn {
	sh.table.mu.Lock()
	if c := sh.table.lookupLocked(key); c != nil {
		sh.table.mu.Unlock()
		return c
	}
	c := l.newPeerLocked(sh, key, from)
	if c != nil {
		sh.table.insertLocked(c.key, c)
	}
	sh.table.mu.Unlock()
	if c == nil || !l.offer(c) {
		return nil
	}
	return c
}

// newPeerLocked makes the connection for a peer, or returns nil when the
// listener is shutting down: shutdown empties the table under sh's lock,
// which the caller holds, after closing l.closed, so a connection
// inserted now would never be closed, and the datagrams of a burst still
// being delivered would sit in its ring for good.
//
// A peer is three allocations: the connection, which holds its ring and
// a unix peer's name, the ring's slots, and the notify channel. A string
// key is copied into the connection: the linux unix receive loop's
// aliases that loop's sockaddr storage, and the one reofferUnread passes
// is the closing connection's, which the new one must not keep alive.
func (l *reactorListener) newPeerLocked(sh *reactorShard, key peerKey, from net.Addr) *reactorConn {
	select {
	case <-l.closed:
		return nil
	default:
	}
	sh.conns.Add(1)
	l.tel.peersOpened.Inc()
	c := &reactorConn{
		l:      l,
		shard:  sh,
		peer:   from,
		local:  l.addr,
		notify: make(chan struct{}, 1),
	}
	c.key = c.own(key)
	c.remote = core.Addr{Net: l.addr.Net, Addr: c.key.String()}
	c.ring.init(l.cfg.RingSize)
	return c
}

// offer puts a connection the table already holds on the accept queue.
// A full backlog retracts it, releasing what it holds, and reports
// false.
func (l *reactorListener) offer(c *reactorConn) bool {
	select {
	case l.accept <- c:
		return true
	default:
		c.discard()
		l.tel.acceptDropped.Inc()
		return false
	}
}

// reofferUnread takes a closed unix peer out of the table and offers
// what its ring still holds — datagrams nobody read, and pushes that
// raced its Close — as a new peer with the same address, on the accept
// queue. A local-fast-path client keeps its socket from one connection
// to the next, so what a server connection holds unread when it closes
// is the start of the client's next connection: its resume request. The
// datagrams go after what the peer the table now holds for the address
// has, when there is one (an earlier call's), so their order is kept:
// the listener's one reactor goroutine pushes nothing newer for that
// address until its own call for the push that raced Close is done.
// They are released when the accept queue is full or the listener is
// shutting down.
func (l *reactorListener) reofferUnread(c *reactorConn) {
	sh := c.shard
	sh.table.mu.Lock()
	c.popMu.Lock()
	b := c.ring.pop()
	if b == nil {
		// A push still under way sees c closed when it is done, and
		// comes back here.
		c.popMu.Unlock()
		sh.table.replaceLocked(c, nil)
		sh.table.mu.Unlock()
		return
	}
	to := sh.table.lookupLocked(c.key)
	fresh := to == nil || to == c
	if fresh {
		to = l.newPeerLocked(sh, c.key, c.peer)
	}
	if to == nil { // shutting down
		c.popMu.Unlock()
		sh.table.replaceLocked(c, nil)
		sh.table.mu.Unlock()
		b.Release()
		c.drain()
		return
	}
	// Moved before a new peer is in the table, where the reactor would
	// find it and push what came later.
	for ; b != nil; b = c.ring.pop() {
		if !to.ring.push(b) {
			l.tel.dropped.Inc()
			l.tel.droppedQueueFull.Inc()
		}
	}
	c.popMu.Unlock()
	if fresh {
		sh.table.replaceLocked(c, to)
	}
	sh.table.mu.Unlock()
	if fresh && !l.offer(to) {
		return
	}
	to.wake(sh)
}

func (l *reactorListener) Accept(ctx context.Context) (core.Conn, error) {
	l.start()
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.closed:
		return nil, core.ErrClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (l *reactorListener) Addr() core.Addr { return l.addr }

// Close shuts the listener down and joins its reactor goroutines: when
// it returns, every receive buffer the reactors held is back in the
// pool and nothing touches the listener's state again.
func (l *reactorListener) Close() error {
	// A listener closed before its lazy start never starts; one starting
	// concurrently finishes first, so the join below sees its goroutines.
	l.startOnce.Do(func() {})
	l.shutdown()
	l.wg.Wait()
	return nil
}

// shutdown closes the socket and every connection without joining the
// reactor goroutines — what a reactor goroutine itself calls when it
// finds the socket closed underneath it.
func (l *reactorListener) shutdown() {
	l.once.Do(func() {
		close(l.closed)
		l.pc.Close()
		unregisterReactor(l)
		for _, sh := range l.shards {
			for _, c := range sh.table.closeAll() {
				c.closePeer()
			}
			sh.conns.Store(0)
		}
	})
}

// Shards reports the reactor width (ReactorListener).
func (l *reactorListener) Shards() int {
	l.start()
	return l.cfg.Shards
}

// Ready returns the next readable connection on a shard
// (ReactorListener).
func (l *reactorListener) Ready(ctx context.Context, shard int) (core.Conn, error) {
	l.start()
	if shard < 0 || shard >= len(l.shards) {
		return nil, fmt.Errorf("transport: shard %d out of range [0,%d)", shard, len(l.shards))
	}
	l.readyOnce.Do(l.engageReadiness)
	sh := l.shards[shard]
	for {
		// Before the queue: under load it is never empty, and a worker
		// told to stop must not be handed connections for ever.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if c := sh.ready.pop(); c != nil {
			return c, nil
		}
		select {
		case <-sh.ready.ch:
		case <-l.closed:
			return nil, core.ErrClosed
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// engageReadiness turns readiness edges on and posts one for every
// connection that already holds undelivered messages. A delivery racing
// the switch either sees it on (and posts its own edge) or pushed before
// the sweep below looked at its ring.
func (l *reactorListener) engageReadiness() {
	l.readiness.Store(true)
	for _, sh := range l.shards {
		sh.table.each(func(c *reactorConn) {
			if c.ring.occupied() > 0 && c.queued.CompareAndSwap(false, true) {
				sh.ready.push(c)
			}
		})
	}
}

// Rearm re-enables readiness edges for c (ReactorListener).
func (l *reactorListener) Rearm(conn core.Conn) {
	c, ok := conn.(*reactorConn)
	if !ok {
		return
	}
	c.queued.Store(false)
	if c.ring.occupied() > 0 && c.queued.CompareAndSwap(false, true) {
		c.shard.ready.push(c)
	}
}

// reactorConnOverhead approximates a connection's fixed footprint
// beyond its ring slots: the conn struct, which holds the ring header,
// the notify channel, and its table slot.
var reactorConnOverhead = int64(unsafe.Sizeof(reactorConn{})) + 104

// ReactorStats implements core.ReactorAccountant.
func (l *reactorListener) ReactorStats() core.ReactorStats {
	st := core.ReactorStats{
		Shards:      l.cfg.Shards,
		RingSize:    l.cfg.RingSize,
		Goroutines:  l.goroutines.Load(),
		AcceptQueue: len(l.accept),
	}
	if !l.started.Load() {
		return st
	}
	st.ShardConns = make([]int64, len(l.shards))
	for i, sh := range l.shards {
		n := sh.conns.Load()
		st.ShardConns[i] = n
		st.Conns += n
		occ, tableBytes := sh.table.account()
		st.RingOccupied += occ
		st.ConnMemBytes += tableBytes
	}
	st.ConnMemBytes += st.Conns * (reactorConnOverhead + int64(l.cfg.RingSize)*16)
	return st
}

// readyQueue is one shard's FIFO of readiness edges. Pushes come from
// reactor goroutines and Rearm; pops from Ready callers. Entries are
// unique (the connection's queued flag gates pushes), so the queue
// holds at most one slot per live connection and its backing array
// stops growing once warm.
type readyQueue struct {
	mu   sync.Mutex
	q    []*reactorConn
	head int
	ch   chan struct{} // cap 1: wake for blocked Ready callers
}

func (r *readyQueue) push(c *reactorConn) {
	r.mu.Lock()
	r.q = append(r.q, c)
	r.mu.Unlock()
	select {
	case r.ch <- struct{}{}:
	default:
	}
}

func (r *readyQueue) pop() *reactorConn {
	r.mu.Lock()
	var c *reactorConn
	if r.head < len(r.q) {
		c = r.q[r.head]
		r.q[r.head] = nil
		r.head++
		if r.head == len(r.q) {
			r.q = r.q[:0]
			r.head = 0
		}
	}
	r.mu.Unlock()
	return c
}

// peerTable is one shard's open-addressing connection table. Lookups
// are lock-free: linear probing over atomic entry loads. Inserts,
// removes, and growth serialize on mu; growth installs a rebuilt array
// with a single pointer swap, so a concurrent reader sees either the
// old or the new generation (a reader racing an insert into the new
// generation may miss it — the reactor re-checks under mu before
// materializing, so a miss never duplicates a connection).
type peerTable struct {
	mu    sync.Mutex
	slots atomic.Pointer[peerSlots]
	live  int // entries holding a connection (guarded by mu)
	used  int // slots consumed, tombstones included (guarded by mu)
}

type peerSlots struct {
	mask    uint64
	entries []peerEntry
}

type peerEntry struct {
	c atomic.Pointer[reactorConn]
}

// tombstone marks a vacated slot so probe chains stay connected.
var tombstone = &reactorConn{}

// lookup finds the live connection for key, lock-free.
func (t *peerTable) lookup(key peerKey) *reactorConn {
	s := t.slots.Load()
	if s == nil {
		return nil
	}
	h := key.hash()
	for probe := uint64(0); probe <= s.mask; probe++ {
		c := s.entries[(h+probe)&s.mask].c.Load()
		if c == nil {
			return nil
		}
		if c != tombstone && c.key == key {
			return c
		}
	}
	return nil
}

// lookupLocked is lookup under mu (no new generation can race in).
func (t *peerTable) lookupLocked(key peerKey) *reactorConn {
	return t.lookup(key)
}

// insertLocked adds a connection; the caller holds mu and has verified
// the key is absent.
func (t *peerTable) insertLocked(key peerKey, c *reactorConn) {
	s := t.slots.Load()
	if s == nil || uint64(t.used+1) > (s.mask+1)*3/4 {
		s = t.grow(s)
	}
	h := key.hash()
	for probe := uint64(0); ; probe++ {
		e := &s.entries[(h+probe)&s.mask]
		cur := e.c.Load()
		if cur == nil {
			t.used++
			t.live++
			e.c.Store(c)
			return
		}
		if cur == tombstone {
			t.live++
			e.c.Store(c)
			return
		}
	}
}

// remove tombstones c's slot, if c is still in the table.
func (t *peerTable) remove(c *reactorConn) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.replaceLocked(c, nil)
}

// replaceLocked puts by in c's slot, or a tombstone when by is nil; by
// has c's key. It does nothing when c is not in the table. The caller
// holds mu.
func (t *peerTable) replaceLocked(c, by *reactorConn) {
	s := t.slots.Load()
	if s == nil {
		return
	}
	h := c.key.hash()
	for probe := uint64(0); probe <= s.mask; probe++ {
		e := &s.entries[(h+probe)&s.mask]
		cur := e.c.Load()
		if cur == nil {
			break
		}
		if cur == c {
			if by == nil {
				e.c.Store(tombstone)
				t.live--
			} else {
				e.c.Store(by)
			}
			return
		}
	}
	if by != nil {
		t.insertLocked(by.key, by)
	}
}

// grow installs a generation sized for the live population (tombstones
// compacted away) and returns it. Caller holds mu.
func (t *peerTable) grow(old *peerSlots) *peerSlots {
	size := 64
	for size < (t.live+1)*2 {
		size <<= 1
	}
	ns := &peerSlots{mask: uint64(size - 1), entries: make([]peerEntry, size)}
	t.used = 0
	if old != nil {
		for i := range old.entries {
			c := old.entries[i].c.Load()
			if c == nil || c == tombstone {
				continue
			}
			h := c.key.hash()
			for probe := uint64(0); ; probe++ {
				e := &ns.entries[(h+probe)&ns.mask]
				if e.c.Load() == nil {
					e.c.Store(c)
					t.used++
					break
				}
			}
		}
	}
	t.slots.Store(ns)
	return ns
}

// closeAll empties the table (listener shutdown) and returns the
// connections that were live.
func (t *peerTable) closeAll() []*reactorConn {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.slots.Load()
	if s == nil {
		return nil
	}
	conns := make([]*reactorConn, 0, t.live)
	for i := range s.entries {
		if c := s.entries[i].c.Load(); c != nil && c != tombstone {
			conns = append(conns, c)
			s.entries[i].c.Store(tombstone)
		}
	}
	t.live = 0
	return conns
}

// each calls f for every live connection of the current generation.
func (t *peerTable) each(f func(*reactorConn)) {
	s := t.slots.Load()
	if s == nil {
		return
	}
	for i := range s.entries {
		if c := s.entries[i].c.Load(); c != nil && c != tombstone {
			f(c)
		}
	}
}

// account sums live connections' ring occupancy and the table's own
// footprint (snapshot time only).
func (t *peerTable) account() (occupied, tableBytes int64) {
	if s := t.slots.Load(); s != nil {
		tableBytes = int64(len(s.entries)) * 8
	}
	t.each(func(c *reactorConn) { occupied += c.ring.occupied() })
	return occupied, tableBytes
}

// reactorConn is the per-peer connection handed out by a reactor
// listener: sends go straight to the shared socket; receives drain the
// connection's ring, filled by the reactor goroutines.
type reactorConn struct {
	l             *reactorListener
	shard         *reactorShard
	key           peerKey
	peer          net.Addr // set only by the portable unix receive loop
	local, remote core.Addr
	// name holds a string key's bytes (own).
	name [maxPeerName]byte

	ring  connRing
	popMu sync.Mutex // serializes consumers over ring.pop
	// notify (cap 1) wakes a blocked RecvBuf caller: for a delivery,
	// and once closedFlag is set for the close, a token each receiver
	// that finds the connection closed passes on to the next.
	notify chan struct{}

	queued     atomic.Bool // readiness edge pending in the shard queue
	closedFlag atomic.Bool
	// parked is set by Park, and cleared by whichever of Park and
	// deliver offers the connection on Accept again.
	parked atomic.Bool
	once   sync.Once
}

// maxPeerName is the longest peer name a connection holds in place: a
// unix socket's sun_path.
const maxPeerName = 108

// own returns key with its string, if it has one, copied into c.name. A
// longer name than that is cloned.
func (c *reactorConn) own(key peerKey) peerKey {
	switch {
	case key.s == "":
	case len(key.s) <= len(c.name):
		n := copy(c.name[:], key.s)
		key.s = unsafe.String(&c.name[0], n)
	default:
		key.s = strings.Clone(key.s)
	}
	return key
}

// wake publishes a delivery: a token for blocked receivers and, once the
// listener is served through Ready, a readiness edge for its workers.
func (c *reactorConn) wake(sh *reactorShard) {
	c.poke()
	if c.l.readiness.Load() && c.queued.CompareAndSwap(false, true) {
		sh.ready.push(c)
	}
}

// writeTo sends one datagram to the peer over the shared socket: by
// AddrPort on UDP, to the net.Addr the portable receive loop saw, or —
// a linux unix peer, keyed by its path alone — through writeUnix.
func (c *reactorConn) writeTo(p []byte) error {
	var err error
	switch {
	case c.l.apc != nil:
		_, err = c.l.apc.WriteToAddrPort(p, c.key.ap)
	case c.peer != nil:
		_, err = c.l.pc.WriteTo(p, c.peer)
	default:
		err = c.l.writeUnix(c, p)
	}
	c.l.tel.sendSyscalls.Inc()
	return err
}

// writeLoop is the portable burst path — one writeTo per message — and
// the path of every burst of one. It reports how many messages went out.
func (c *reactorConn) writeLoop(bs []*wire.Buf) (int, error) {
	for i, b := range bs {
		if b.Len() > MaxDatagram {
			return i, oversizeErr(b.Len())
		}
		if err := c.writeTo(b.Bytes()); err != nil {
			return i, err
		}
	}
	return len(bs), nil
}

func (c *reactorConn) Send(ctx context.Context, p []byte) error {
	if len(p) > MaxDatagram {
		return oversizeErr(len(p))
	}
	if c.closedFlag.Load() {
		return core.ErrClosed
	}
	if err := c.writeTo(p); err != nil {
		if isClosedErr(err) {
			return core.ErrClosed
		}
		return err
	}
	c.l.tel.sent.Inc()
	return nil
}

// SendBuf writes the buffer and releases it.
func (c *reactorConn) SendBuf(ctx context.Context, b *wire.Buf) error {
	err := c.Send(ctx, b.Bytes())
	b.Release()
	return err
}

// SendBufs sends the burst to the peer over the shared listener socket
// with one closed-state check up front: on a linux UDP socket as one GSO
// sendmsg (or sendmmsg) addressed to the peer, elsewhere — and for a
// burst of one — as a write loop. The first failure aborts the burst.
func (c *reactorConn) SendBufs(ctx context.Context, bs []*wire.Buf) error {
	if c.closedFlag.Load() {
		core.ReleaseAll(bs)
		return &core.BatchError{Sent: 0, Err: core.ErrClosed}
	}
	sent, err := c.l.writeBurst(c, bs)
	if sent > 0 {
		c.l.tel.sent.Add(uint64(sent))
	}
	core.ReleaseAll(bs)
	if err != nil {
		if isClosedErr(err) {
			err = core.ErrClosed
		}
		return &core.BatchError{Sent: sent, Err: err}
	}
	return nil
}

// RecvBuf hands the next ring buffer to the caller, blocking until the
// reactor delivers one or the connection closes.
func (c *reactorConn) RecvBuf(ctx context.Context) (*wire.Buf, error) {
	for {
		c.popMu.Lock()
		b := c.ring.pop()
		c.popMu.Unlock()
		if b != nil {
			return b, nil
		}
		if c.closedFlag.Load() {
			c.poke() // for the next receiver blocked here
			return nil, core.ErrClosed
		}
		select {
		case <-c.notify:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// poke leaves a wake-up token for a blocked receiver.
func (c *reactorConn) poke() {
	select {
	case c.notify <- struct{}{}:
	default:
	}
}

// RecvBufs drains the ring: blocking for the first message, then taking
// whatever the reactor has already delivered — a burst costs one
// blocking receive however large it is.
func (c *reactorConn) RecvBufs(ctx context.Context, into []*wire.Buf) (int, error) {
	if len(into) == 0 {
		return 0, nil
	}
	b, err := c.RecvBuf(ctx)
	if err != nil {
		return 0, err
	}
	into[0] = b
	n := 1
	c.popMu.Lock()
	for n < len(into) {
		b := c.ring.pop()
		if b == nil {
			break
		}
		into[n] = b
		n++
	}
	c.popMu.Unlock()
	return n, nil
}

// Headroom: transports terminate the stack, no headers below.
func (c *reactorConn) Headroom() int { return 0 }

func (c *reactorConn) Recv(ctx context.Context) ([]byte, error) {
	b, err := c.RecvBuf(ctx)
	if err != nil {
		return nil, err
	}
	return b.CopyOut(), nil
}

func (c *reactorConn) LocalAddr() core.Addr  { return c.local }
func (c *reactorConn) RemoteAddr() core.Addr { return c.remote }

// Direct implements core.DirectConn.
func (c *reactorConn) Direct() bool { return true }

// Close detaches the peer connection from the listener. The listener's
// socket stays open for other peers; a reused source address
// materializes a fresh connection. On a unix listener, what the
// connection holds unread is offered again as a new peer
// (reofferUnread); elsewhere it is released.
func (c *reactorConn) Close() error {
	c.close(c.l.reoffer)
	return nil
}

// Park implements core.Parker. The connection's owner is done with it
// while the peer keeps its socket (a local-fast-path client keeps it for
// its next connection): it stays in its shard's table with no owner, and
// the peer's next datagram, or one already in its ring, offers this same
// connection on Accept again, where a closed one would make a new peer
// of it. That costs deliver one flag check on a unix listener, and
// nothing elsewhere. It reports false, and does nothing, when the
// connection is closed or its listener is not a unix one; the caller
// closes it then. A parked connection is closed as any other: by Close,
// which releases what its ring holds, or by the listener's.
func (c *reactorConn) Park() bool {
	if !c.l.reoffer || c.closedFlag.Load() {
		return false
	}
	c.parked.Store(true)
	// A push before the store above is seen here; one after it, by
	// deliver's check of the flag.
	if c.ring.occupied() > 0 && c.parked.CompareAndSwap(true, false) && c.l.offer(c) {
		c.wake(c.shard)
	}
	return true
}

// discard closes the connection and releases what it holds, on every
// listener: the accept queue had no room for it.
func (c *reactorConn) discard() { c.close(false) }

func (c *reactorConn) close(reoffer bool) {
	c.once.Do(func() {
		c.closedFlag.Store(true)
		c.poke()
		c.shard.conns.Add(-1)
		if reoffer {
			c.l.reofferUnread(c)
			return
		}
		c.shard.table.remove(c)
		c.drain()
	})
}

// closePeer closes the conn on listener shutdown; the table is being
// emptied wholesale, so no per-key removal.
func (c *reactorConn) closePeer() {
	c.once.Do(func() {
		c.closedFlag.Store(true)
		c.poke()
		c.drain()
	})
}

// drain releases undelivered pooled buffers. Close drains after
// removing the table entry; a producer that raced the removal re-drains
// after its push (deliver's closedFlag check), so no buffer strands in
// a dead ring.
func (c *reactorConn) drain() {
	c.popMu.Lock()
	for {
		b := c.ring.pop()
		if b == nil {
			break
		}
		b.Release()
	}
	c.popMu.Unlock()
}
