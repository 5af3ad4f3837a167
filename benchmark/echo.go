package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bertha-net/bertha/bertha"
	"github.com/bertha-net/bertha/bertha/transport"
)

// echoFrame is the http2 chunnel's frame size in both echo workloads:
// below a loopback MTU, so a 16 KiB message becomes ~14 datagrams.
const echoFrame = 1200

// payloadPool is how many distinct seeded payloads an echo client
// rotates through.
const payloadPool = 64

// echoServer accepts connections on l and echoes every message until
// closed.
type echoServer struct {
	cancel context.CancelFunc
	l      bertha.Listener
	wg     sync.WaitGroup
}

// serveEcho starts the accept loop. perConn > 0 closes a connection
// after that many echoes (or an idle second): see churn.go for why.
func serveEcho(l bertha.Listener, perConn int) *echoServer {
	ctx, cancel := context.WithCancel(context.Background())
	s := &echoServer{cancel: cancel, l: l}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := l.Accept(ctx)
			if err != nil {
				return
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer conn.Close()
				if perConn > 0 {
					echoN(ctx, conn, perConn)
					return
				}
				for {
					m, err := conn.Recv(ctx)
					if err != nil {
						return
					}
					if conn.Send(ctx, m) != nil {
						return
					}
				}
			}()
		}
	}()
	return s
}

// echoN serves n echoes, giving up on a peer silent for a second.
func echoN(ctx context.Context, conn bertha.Conn, n int) {
	ctx, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	for i := 0; i < n; i++ {
		m, err := conn.Recv(ctx)
		if err != nil {
			return
		}
		if conn.Send(ctx, m) != nil {
			return
		}
	}
}

func (s *echoServer) close() {
	s.cancel()
	s.l.Close()
	s.wg.Wait()
}

// echoClient ping-pongs seeded payloads with one message outstanding.
// The first 8 bytes of every message carry the op's sequence number, so
// a reply that arrives after its op has been answered or given up (an
// extra try's echo) is recognised as stale instead of failing the next op.
type echoClient struct {
	conn     bertha.Conn
	payloads [][]byte
	seq      uint64
}

func newEchoClient(conn bertha.Conn, rng *rand.Rand, size int) *echoClient {
	c := &echoClient{conn: conn}
	for i := 0; i < payloadPool; i++ {
		p := make([]byte, size)
		rng.Read(p)
		c.payloads = append(c.payloads, p)
	}
	return c
}

// roundTrip is one verified echo, tried once, under ctx's deadline.
func (c *echoClient) roundTrip(ctx context.Context) error {
	c.seq++
	return c.exchange(ctx)
}

// exchange sends the current op's message and waits for its echo.
func (c *echoClient) exchange(ctx context.Context) error {
	p := c.payloads[c.seq%uint64(len(c.payloads))]
	binary.LittleEndian.PutUint64(p, c.seq)
	if err := c.conn.Send(ctx, p); err != nil {
		return err
	}
	for {
		m, err := c.conn.Recv(ctx)
		if err != nil {
			return err
		}
		if len(m) >= 8 && binary.LittleEndian.Uint64(m) < c.seq {
			continue // reply to an earlier op's extra try
		}
		if !bytes.Equal(m, p) {
			return fmt.Errorf("echo: %w (%d vs %d bytes)", errWrongReply, len(m), len(p))
		}
		return nil
	}
}

// op is one operation: the same message sent again whenever opDeadline
// passes without its echo, failed after opTries tries or on a wrong echo.
func (c *echoClient) op() (retries int, err error) {
	c.seq++
	return retryOp(func(ctx context.Context) error { return c.exchange(ctx) })
}

// retryOp runs try under opDeadline until it succeeds, reports a wrong
// reply or has been run opTries times.
func retryOp(try func(ctx context.Context) error) (retries int, err error) {
	for {
		ctx, cancel := opContext()
		err = try(ctx)
		cancel()
		if err == nil || errors.Is(err, errWrongReply) || retries == opTries-1 {
			return retries, err
		}
		retries++
	}
}

func (c *echoClient) run(stop *atomic.Bool, rec *recorder) {
	for !stop.Load() {
		t0 := time.Now()
		retries, err := c.op()
		d := time.Since(t0)
		rec.retry(retries)
		if err != nil {
			rec.fail(err)
		} else {
			rec.ok(d)
		}
	}
}

// echoStack is the chunnel DAG both echo workloads negotiate.
func echoStack(key []byte) *bertha.Stack {
	return bertha.Wrap(bertha.Serialize(), bertha.Encrypt(key), bertha.HTTP2(echoFrame))
}

// setupEcho builds the echo world: a negotiated serialize |> encrypt |>
// http2 server on a loopback UDP listener and numConns clients that
// inherit its stack, each proven by one verified round trip.
func setupEcho(cfg runConfig, size int) (*world, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	key := make([]byte, 32)
	rng.Read(key)

	regS := bertha.NewRegistry()
	bertha.RegisterStandard(regS)
	// One reactor goroutine: two take turns on the socket and can push a
	// message's fragments into the connection's ring out of order, which
	// http2 framing treats as loss (README: 1-9 of ~200 000 echo_16k ops
	// timed out per run with the default).
	srvEp, err := bertha.New("echo-srv", echoStack(key),
		bertha.WithRegistry(regS), bertha.WithEnv(bertha.NewEnv("srv")),
		bertha.WithReactor(bertha.ReactorConfig{Shards: 1}))
	if err != nil {
		return nil, err
	}
	base, err := transport.ListenUDP("srv", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	nl, err := srvEp.Listen(context.Background(), base)
	if err != nil {
		base.Close()
		return nil, err
	}
	srv := serveEcho(nl, 0)
	w := &world{}
	w.close = func() {
		for _, c := range w.clients {
			c.(*echoClient).conn.Close()
		}
		srv.close()
	}

	regC := bertha.NewRegistry()
	bertha.RegisterStandard(regC)
	for i := 0; i < numConns; i++ {
		cliEp, err := bertha.New(fmt.Sprintf("echo-cli-%d", i), bertha.Wrap(),
			bertha.WithRegistry(regC), bertha.WithEnv(bertha.NewEnv("cli")))
		if err != nil {
			w.close()
			return nil, err
		}
		conn, err := dialAndConnect(cliEp, "cli", base.Addr().Addr)
		if err != nil {
			w.close()
			return nil, err
		}
		c := newEchoClient(conn, rng, size)
		w.clients = append(w.clients, c)
		if _, err := c.op(); err != nil {
			w.close()
			return nil, fmt.Errorf("echo: first round trip: %w", err)
		}
	}
	return w, nil
}

// dialAndConnect opens a UDP connection to addr and negotiates it.
// Set-up is not an operation, but it still may not hang.
func dialAndConnect(ep *bertha.Endpoint, host, addr string) (bertha.Conn, error) {
	raw, err := transport.DialUDP(host, addr)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return ep.Connect(ctx, raw) // Connect closes raw when it fails
}
