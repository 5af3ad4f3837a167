package discovery

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/telemetry"
	"github.com/bertha-net/bertha/internal/wire"
)

// opCounters are the served-operation counters, registered in the
// process registry under "discovery/<op>" and incremented per request
// the server handles (including ones that fail with a status error).
type opCounters struct {
	register, withdraw, query, claim, release, malformed *telemetry.Counter
}

func newOpCounters() *opCounters {
	reg := telemetry.Default()
	return &opCounters{
		register:  reg.Counter("discovery/register"),
		withdraw:  reg.Counter("discovery/withdraw"),
		query:     reg.Counter("discovery/query"),
		claim:     reg.Counter("discovery/claim"),
		release:   reg.Counter("discovery/release"),
		malformed: reg.Counter("discovery/malformed"),
	}
}

// Wire protocol: every request is one datagram
//
//	reqID uint64 | op uint8 | payload
//
// answered by exactly one response datagram
//
//	reqID uint64 | status uint8 | payload
//
// Requests are idempotent (register/withdraw/query/release) or carry
// client-salted claim semantics, so clients retransmit on timeout.

// Operation codes.
const (
	opRegister uint8 = iota + 1
	opWithdraw
	opQuery
	opClaim
	opRelease
)

// Response status codes.
const (
	statusOK uint8 = iota
	statusErr
)

// requestTimeout is the client's per-attempt response wait.
const requestTimeout = 500 * time.Millisecond

// requestRetries bounds client retransmissions.
const requestRetries = 6

// Server serves a Service over a core.Listener.
type Server struct {
	svc *Service
	l   core.Listener
	ops *opCounters

	cancel context.CancelFunc
	done   chan struct{} // closed when core.Serve has returned
	once   sync.Once
}

// Serve starts serving svc on l and returns immediately; use Close to
// stop.
func Serve(svc *Service, l core.Listener) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{svc: svc, l: l, ops: newOpCounters(), cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		// Serve ends when Close cancels ctx or closes the listener.
		_ = core.Serve(ctx, l, s.answer)
	}()
	return s
}

// answer is the server's core.Handler: a malformed request gets no reply.
func (s *Server) answer(ctx context.Context, req, reply *wire.Buf) bool {
	resp := s.handle(ctx, req.Bytes())
	reply.Append(resp)
	return resp != nil
}

// Close stops the server and its listener, and waits for both.
func (s *Server) Close() error {
	var err error
	s.once.Do(func() {
		s.cancel()
		err = s.l.Close()
		<-s.done
	})
	return err
}

// handle processes one request datagram and returns the response (nil for
// malformed requests, which are dropped).
func (s *Server) handle(ctx context.Context, req []byte) []byte {
	d := wire.NewDecoder(req)
	reqID := d.Uint64()
	op := d.Uint8()
	if d.Err() != nil {
		s.ops.malformed.Inc()
		return nil
	}
	switch op {
	case opRegister:
		s.ops.register.Inc()
	case opWithdraw:
		s.ops.withdraw.Inc()
	case opQuery:
		s.ops.query.Inc()
	case opClaim:
		s.ops.claim.Inc()
	case opRelease:
		s.ops.release.Inc()
	default:
		s.ops.malformed.Inc()
	}
	e := wire.NewEncoder(nil)
	e.PutUint64(reqID)

	fail := func(err error) []byte {
		e.PutUint8(statusErr)
		e.PutString(err.Error())
		return e.Bytes()
	}

	switch op {
	case opRegister:
		offer := core.DecodeOffer(d)
		capacity := int(d.Varint())
		ttl := time.Duration(d.Varint())
		if err := d.Finish(); err != nil {
			return nil
		}
		if err := s.svc.Register(offer, capacity, ttl); err != nil {
			return fail(err)
		}
		e.PutUint8(statusOK)
	case opWithdraw:
		name := d.String()
		if err := d.Finish(); err != nil {
			return nil
		}
		s.svc.Withdraw(name)
		e.PutUint8(statusOK)
	case opQuery:
		n := d.Len()
		if d.Err() != nil {
			return nil
		}
		types := make([]string, 0, n)
		for i := 0; i < n; i++ {
			types = append(types, d.String())
		}
		if err := d.Finish(); err != nil {
			return nil
		}
		offers, err := s.svc.Query(ctx, types)
		if err != nil {
			return fail(err)
		}
		e.PutUint8(statusOK)
		core.EncodeOffers(e, offers)
	case opClaim:
		name := d.String()
		res := core.DecodeResources(d)
		if err := d.Finish(); err != nil {
			return nil
		}
		id, err := s.svc.Claim(ctx, name, res)
		if err != nil {
			return fail(err)
		}
		e.PutUint8(statusOK)
		e.PutUint64(id)
	case opRelease:
		id := d.Uint64()
		if err := d.Finish(); err != nil {
			return nil
		}
		if err := s.svc.Release(ctx, id); err != nil {
			return fail(err)
		}
		e.PutUint8(statusOK)
	default:
		return fail(fmt.Errorf("discovery: unknown op %d", op))
	}
	return e.Bytes()
}

// Client speaks the discovery wire protocol over a core.Conn. It
// implements core.DiscoveryClient and adds Register/Withdraw for offload
// developers and operators.
//
// A Client serializes requests (one outstanding at a time) and
// retransmits on timeout; the underlying transport may be lossy.
// Serialization uses a semaphore channel rather than a mutex so a
// caller waiting its turn still honors context cancellation, and no
// lock is held across the blocking Send/Recv round trip.
type Client struct {
	sem    chan struct{} // capacity 1: one request in flight
	conn   core.Conn
	nextID atomic.Uint64
}

// NewClient returns a Client using conn.
func NewClient(conn core.Conn) *Client {
	return &Client{sem: make(chan struct{}, 1), conn: conn}
}

// Close closes the underlying connection.
func (c *Client) Close() error { return c.conn.Close() }

// roundTrip sends one request and awaits its response, retrying on
// timeout.
func (c *Client) roundTrip(ctx context.Context, build func(e *wire.Encoder)) (*wire.Decoder, error) {
	select {
	case c.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-c.sem }()
	reqID := c.nextID.Add(1)
	e := wire.NewEncoder(nil)
	e.PutUint64(reqID)
	build(e)
	req := append([]byte(nil), e.Bytes()...)

	for attempt := 0; attempt < requestRetries; attempt++ {
		if err := c.conn.Send(ctx, req); err != nil {
			return nil, fmt.Errorf("discovery: send: %w", err)
		}
		actx, cancel := context.WithTimeout(ctx, requestTimeout)
		resp, err := c.conn.Recv(actx)
		cancel()
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
				continue
			}
			return nil, fmt.Errorf("discovery: recv: %w", err)
		}
		d := wire.NewDecoder(resp)
		if d.Uint64() != reqID {
			continue // response to an earlier retransmission
		}
		switch d.Uint8() {
		case statusOK:
			return d, nil
		case statusErr:
			return nil, fmt.Errorf("discovery: %s", d.String())
		default:
			return nil, fmt.Errorf("discovery: malformed response")
		}
	}
	return nil, fmt.Errorf("discovery: no response after %d attempts", requestRetries)
}

// Register advertises an implementation (see Service.Register).
func (c *Client) Register(ctx context.Context, offer core.ImplOffer, capacity int, ttl time.Duration) error {
	_, err := c.roundTrip(ctx, func(e *wire.Encoder) {
		e.PutUint8(opRegister)
		offer.Encode(e)
		e.PutVarint(int64(capacity))
		e.PutVarint(int64(ttl))
	})
	return err
}

// Withdraw removes an advertisement.
func (c *Client) Withdraw(ctx context.Context, name string) error {
	_, err := c.roundTrip(ctx, func(e *wire.Encoder) {
		e.PutUint8(opWithdraw)
		e.PutString(name)
	})
	return err
}

// Query implements core.DiscoveryClient.
func (c *Client) Query(ctx context.Context, types []string) ([]core.ImplOffer, error) {
	d, err := c.roundTrip(ctx, func(e *wire.Encoder) {
		e.PutUint8(opQuery)
		e.PutLen(len(types))
		for _, t := range types {
			e.PutString(t)
		}
	})
	if err != nil {
		return nil, err
	}
	offers := core.DecodeOffers(d)
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("discovery: malformed query response: %w", err)
	}
	return offers, nil
}

// Claim implements core.DiscoveryClient.
func (c *Client) Claim(ctx context.Context, implName string, res core.Resources) (uint64, error) {
	d, err := c.roundTrip(ctx, func(e *wire.Encoder) {
		e.PutUint8(opClaim)
		e.PutString(implName)
		res.Encode(e)
	})
	if err != nil {
		return 0, err
	}
	id := d.Uint64()
	if err := d.Finish(); err != nil {
		return 0, fmt.Errorf("discovery: malformed claim response: %w", err)
	}
	return id, nil
}

// Release implements core.DiscoveryClient.
func (c *Client) Release(ctx context.Context, claimID uint64) error {
	_, err := c.roundTrip(ctx, func(e *wire.Encoder) {
		e.PutUint8(opRelease)
		e.PutUint64(claimID)
	})
	return err
}

var _ core.DiscoveryClient = (*Client)(nil)
