package kv

import (
	"context"
	"fmt"
	"sync"

	"github.com/bertha-net/bertha/internal/chunnels/shard"
	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/wire"
)

// Server is the sharded key-value server: one Store per shard, reached
// from two sources, matching the §5 deployment variants:
//
//   - the shard's listener (ServeShard) — direct connections from
//     client-push clients and forwarded requests from the
//     server-fallback steering proxy;
//   - the shard's steered queue (Queues), drained by one worker per
//     shard — requests redirected by the XDP steering program in the
//     receive path.
type Server struct {
	shards []*Store
	queues []chan shard.Steered

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// queueDepth is the per-shard steered-queue capacity.
const queueDepth = 8192

// NewServer creates a server with nshards shards.
func NewServer(nshards int) (*Server, error) {
	if nshards <= 0 {
		return nil, fmt.Errorf("kv: invalid shard count %d", nshards)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{ctx: ctx, cancel: cancel}
	for i := 0; i < nshards; i++ {
		s.shards = append(s.shards, NewStore())
		s.queues = append(s.queues, make(chan shard.Steered, queueDepth))
	}
	// Steered-queue workers.
	for i := range s.queues {
		s.wg.Add(1)
		go s.queueWorker(i)
	}
	return s, nil
}

// NumShards returns the shard count.
func (s *Server) NumShards() int { return len(s.shards) }

// Shard exposes a shard's store (for preloading and verification).
func (s *Server) Shard(i int) *Store { return s.shards[i] }

// Queues returns the per-shard steered queues, provided to the shard
// chunnel's XDP implementation through Env (shard.EnvQueues).
func (s *Server) Queues() []chan shard.Steered { return s.queues }

// ServeShard serves direct connections for shard i on l until the server
// closes: requests are applied to the shard's store and answered on the
// connection they came from, a burst at a time (core.Serve). The
// listener stays the caller's to close.
func (s *Server) ServeShard(i int, l core.Listener) {
	if i < 0 || i >= len(s.shards) {
		panic(fmt.Sprintf("kv: shard %d out of range", i))
	}
	s.serve(l, s.shards[i].answer)
}

// ServeSteered accepts connections on the canonical listener — the one
// whose endpoint carries the shard chunnel — and holds them until the
// server closes. There is nothing to answer on them: the steering
// implementation takes their requests to the shard queues (Queues), and a
// client-push peer sends its requests to the shard listeners.
func (s *Server) ServeSteered(l core.Listener) {
	s.serve(l, hold)
}

// hold is the handler of a connection that is only held.
func hold(context.Context, *wire.Buf, *wire.Buf) bool { return false }

func (s *Server) serve(l core.Listener, h core.Handler) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		// Serve ends when the server closes (nil) or the listener fails,
		// which whoever owns the listener sees for themselves.
		_ = core.Serve(s.ctx, l, h)
	}()
}

// queueWorker answers shard i's steered requests. Having blocked for
// one, it takes whatever else is queued before it blocks again: a
// non-blocking receive is the cheap kind, and the replies of one
// connection then reach the steering implementation together, which
// sends them together.
func (s *Server) queueWorker(i int) {
	defer s.wg.Done()
	q, st := s.queues[i], s.shards[i]
	reply := wire.NewBuf(0, 0)
	defer reply.Release()
	for {
		var req shard.Steered
		select {
		case req = <-q:
		case <-s.ctx.Done():
			return
		}
		for more := true; more; {
			reply.Truncate(0)
			st.handle(req.Payload, reply)
			if req.Reply != nil {
				_ = req.Reply(s.ctx, reply.Bytes()) // a lost reply is the client's to retry
			}
			select {
			case req = <-q:
			default:
				more = false
			}
		}
	}
}

// Preload inserts keys directly (bypassing the wire) for benchmark
// setup. Keys are padded and routed to their shard's store.
func (s *Server) Preload(keys []string, value []byte) error {
	for _, k := range keys {
		padded, err := PadKey(k)
		if err != nil {
			return err
		}
		idx, err := ShardOf(k, len(s.shards))
		if err != nil {
			return err
		}
		s.shards[idx].Apply(Request{Op: OpPut, Key: padded, Value: value})
	}
	return nil
}

// TotalKeys sums keys across shards.
func (s *Server) TotalKeys() int {
	n := 0
	for _, st := range s.shards {
		n += st.Len()
	}
	return n
}

// Close stops all workers and waits for them.
func (s *Server) Close() {
	s.cancel()
	s.wg.Wait()
}
