package core_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/spec"
	"github.com/bertha-net/bertha/internal/testutil"
	"github.com/bertha-net/bertha/internal/transport"
)

// TestNegotiationSeesLaterRegistration checks that endpoints negotiate
// from their registry as it is when a connection starts: an
// implementation registered on both sides after a first connection wins
// the next one.
func TestNegotiationSeesLaterRegistration(t *testing.T) {
	regC, regS := core.NewRegistry(), core.NewRegistry()
	regC.MustRegister(newMark("mark/fb", 1, 0))
	regS.MustRegister(newMark("mark/fb", 1, 0))
	srv, _ := core.NewEndpoint("srv", spec.Seq(spec.New("mark")), core.WithRegistry(regS))
	cli, _ := core.NewEndpoint("cli", spec.Seq(), core.WithRegistry(regC))
	cconn, sconn := dialAndServe(t, cli, srv)
	echoOnce(t, cconn, sconn, "first")

	fastC, fastS := newMark("mark/fast", 2, 10), newMark("mark/fast", 2, 10)
	regC.MustRegister(fastC)
	regS.MustRegister(fastS)
	cconn, sconn = dialAndServe(t, cli, srv)
	echoOnce(t, cconn, sconn, "second")
	if fastC.wraps.Load() != 1 || fastS.wraps.Load() != 1 {
		t.Errorf("the later registration wrapped client=%d server=%d times, want 1 each",
			fastC.wraps.Load(), fastS.wraps.Load())
	}
}

// TestHandshakeAllocBudget bounds what one connection's set-up and
// teardown allocate over the pipe network, both endpoints together. It
// was 159 objects when every connection re-sorted the registry and
// re-encoded and re-decoded the offers, 107 while every trace event was
// formatted as it was recorded and every Close built a teardown timeout,
// and 83 while the close notice went under a context.WithTimeout; it
// measures 76 now. The budget catches per-endpoint work, or formatting
// nobody reads, creeping back into the per-connection path.
func TestHandshakeAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	regC, regS := core.NewRegistry(), core.NewRegistry()
	for _, r := range []*core.Registry{regC, regS} {
		r.MustRegister(newMark("mark/fb", 1, 0))
		r.MustRegister(newMark("mark/fast", 2, 10))
		r.MustRegister(&passImpl{info: core.ImplInfo{Name: "pass/fb", Type: "pass", Endpoint: spec.EndpointBoth}})
	}
	srv, _ := core.NewEndpoint("srv", spec.Seq(spec.New("mark"), spec.New("pass")),
		core.WithRegistry(regS), core.WithEnv(core.NewEnv("srvhost")))
	cli, _ := core.NewEndpoint("cli", spec.Seq(), core.WithRegistry(regC), core.WithEnv(core.NewEnv("clihost")))

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	pn := transport.NewPipeNetwork()
	base, err := pn.Listen("srvhost", "svc")
	if err != nil {
		t.Fatal(err)
	}
	nl, err := srv.Listen(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	defer nl.Close()
	accepted := make(chan core.Conn)
	go func() {
		for {
			c, err := nl.Accept(ctx)
			if err != nil {
				close(accepted)
				return
			}
			accepted <- c
		}
	}()
	lifecycle := func() {
		raw, err := pn.DialFrom(ctx, "clihost", base.Addr())
		if err != nil {
			t.Fatal(err)
		}
		c, err := cli.Connect(ctx, raw)
		if err != nil {
			t.Fatal(err)
		}
		s := <-accepted
		c.Close()
		s.Close()
	}
	lifecycle() // build both snapshots and the server's offer table
	const budget = 85
	if avg := testing.AllocsPerRun(50, lifecycle); avg > budget {
		t.Fatalf("connection set-up and teardown allocate %.0f objects, budget is %d", avg, budget)
	}
}

// TestConnectShortContextNoReply connects under a context that ends
// before one hello attempt would time out, to a listener that never
// answers: the context bounds the attempt by itself, and Connect fails
// with the context's error when it ends.
func TestConnectShortContextNoReply(t *testing.T) {
	pn := transport.NewPipeNetwork()
	base, err := pn.Listen("srvhost", "mute")
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	cli, _ := core.NewEndpoint("cli", spec.Seq(), core.WithRegistry(core.NewRegistry()))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	raw, err := pn.DialFrom(ctx, "clihost", base.Addr())
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = cli.Connect(ctx, raw)
	if !errors.Is(err, core.ErrNegotiation) || !strings.Contains(err.Error(), context.DeadlineExceeded.Error()) {
		t.Fatalf("connect to a mute listener = %v, want a negotiation error carrying the deadline", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("connect took %v under a 50ms context", waited)
	}
}
