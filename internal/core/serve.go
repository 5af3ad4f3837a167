package core

import (
	"context"
	"errors"
	"sync"

	"github.com/bertha-net/bertha/internal/wire"
)

// Handler answers one request of a request/reply service run by Serve.
//
// req is the request, borrowed for the call: Serve releases it when the
// handler returns, so the handler must not keep req, or a slice of its
// bytes, any longer. reply is an empty buffer with the connection's send
// headroom in front; the handler appends the response to it (Extend,
// Append) and returns true to have it sent, or false to send nothing for
// this request. Either way reply stays Serve's.
//
// Requests of one connection are handled in arrival order, one at a
// time; different connections may be handled concurrently.
type Handler func(ctx context.Context, req, reply *wire.Buf) bool

// ReadyListener is a Listener that can also say which of its connections
// are readable, so that a few workers can serve all of them (the sharded
// reactor runtime behind the datagram transports is one).
//
// Ready blocks until some connection of the shard has undelivered
// messages and returns it, once per readiness edge. The worker takes
// what it wants and calls Rearm; a connection with messages left, or
// arrived meanwhile, becomes ready again at once. A connection is never
// handed to two workers at a time. Ready fails once ctx is done, queued
// connections or not. A connection obtained from Ready
// returns queued messages from its receive calls before it consults the
// context, so receiving with a done context polls it.
type ReadyListener interface {
	Listener
	// Shards is the number of independent ready queues; valid shard
	// indices for Ready are [0, Shards()).
	Shards() int
	Ready(ctx context.Context, shard int) (Conn, error)
	Rearm(conn Conn)
}

// serveBurst bounds the requests taken off a connection, and the replies
// sent to it, in one step.
const serveBurst = 64

// Polled is a done context: a receive under it returns what is already
// queued or fails at once with context.Canceled, on a connection that
// looks at its queue before its context (ReadyListener requires that;
// the socket, reactor and pipe transports all do).
var Polled = func() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}()

// Serve runs a request/reply service on l until ctx is done or l is
// closed, then closes the connections it accepted, waits for every
// goroutine it started and returns — nil after either of those two, the
// listener's error otherwise.
//
// The unit of work is a burst: Serve takes the requests a connection has
// queued (RecvBufs), runs h on each, and sends the replies with one
// SendBufs, which the datagram transports turn into one system call. On
// a ReadyListener it does so from one worker per shard, whatever the
// number of connections, and never blocks in a receive: a connection
// with nothing queued is simply re-armed. On any other listener it runs
// one goroutine per accepted connection.
//
// A connection that fails to receive or send is closed and forgotten; a
// datagram peer that comes back is accepted afresh.
func Serve(ctx context.Context, l Listener, h Handler) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	s := &server{h: h}
	var wg sync.WaitGroup
	rl, ready := l.(ReadyListener)
	if ready {
		s.held = make(map[Conn]bool)
		for i := 0; i < rl.Shards(); i++ {
			wg.Add(1)
			go func(shard int) {
				defer wg.Done()
				s.serveShard(ctx, rl, shard)
			}(i)
		}
	}
	var err error
	for {
		var conn Conn
		if conn, err = l.Accept(ctx); err != nil {
			break
		}
		if ready {
			s.hold(conn)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer conn.Close()
			var b burst
			for s.step(ctx, ctx, conn, &b) == nil {
			}
		}()
	}
	cancel()
	wg.Wait()
	for conn := range s.held {
		conn.Close()
	}
	if ctx.Err() != nil || errors.Is(err, ErrClosed) {
		return nil
	}
	return err
}

// server is one Serve call's state.
type server struct {
	h Handler
	// held is the set of open connections a ReadyListener has handed to
	// Accept: the workers get them from Ready, so this is only the list of
	// what to close at the end. A connection can reach a worker, fail there
	// and be dropped before the acceptor has held it; the drop then leaves
	// a false entry for hold to find and remove, so that neither order
	// keeps a closed connection.
	mu   sync.Mutex
	held map[Conn]bool
}

func (s *server) hold(conn Conn) {
	s.mu.Lock()
	if _, dropped := s.held[conn]; dropped {
		delete(s.held, conn)
	} else {
		s.held[conn] = true
	}
	s.mu.Unlock()
}

func (s *server) drop(conn Conn) {
	conn.Close()
	s.mu.Lock()
	if s.held[conn] {
		delete(s.held, conn)
	} else {
		s.held[conn] = false
	}
	s.mu.Unlock()
}

// burst is one worker's scratch: the requests of the step in progress
// and their replies.
type burst struct {
	reqs, replies [serveBurst]*wire.Buf
}

// serveShard is the worker of one shard of a ReadyListener.
func (s *server) serveShard(ctx context.Context, rl ReadyListener, shard int) {
	var b burst
	for {
		conn, err := rl.Ready(ctx, shard)
		if err != nil {
			return
		}
		err = s.step(Polled, ctx, conn, &b)
		if polledEmpty := errors.Is(err, context.Canceled) && ctx.Err() == nil; err == nil || polledEmpty {
			rl.Rearm(conn)
		} else {
			s.drop(conn)
		}
	}
}

// step serves one burst of conn: receive under recvCtx, handle, reply.
func (s *server) step(recvCtx, ctx context.Context, conn Conn, b *burst) error {
	n, err := RecvBufs(recvCtx, conn, b.reqs[:])
	if err != nil {
		return err
	}
	headroom := HeadroomOf(conn)
	out := b.replies[:0]
	var reply *wire.Buf
	for i, req := range b.reqs[:n] {
		if reply == nil {
			reply = wire.NewBuf(headroom, 0)
		}
		if s.h(ctx, req, reply) {
			out = append(out, reply)
			reply = nil
		} else {
			reply.Truncate(0)
		}
		req.Release()
		b.reqs[i] = nil
	}
	reply.Release()
	if len(out) == 0 {
		return nil
	}
	return SendBufs(ctx, conn, out)
}
