package core_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/spec"
	"github.com/bertha-net/bertha/internal/telemetry"
	"github.com/bertha-net/bertha/internal/transport"
	"github.com/bertha-net/bertha/internal/wire"
)

// flakyParams is a pass implementation that wins the ranking and then
// cannot produce its parameters: the server falls back past it.
type flakyParams struct{ passImpl }

func (f *flakyParams) NegotiateParams(ctx context.Context, env *core.Env, args []wire.Value) ([]wire.Value, error) {
	return nil, errors.New("no parameters here")
}

// TestTraceDetailsGolden records one negotiation event of every kind and
// checks the Detail each renders: events keep the names and counts they
// print and are formatted only when read, so the text must be what
// formatting at record time produced. The same text reaches Events, the
// /debug/bertha JSON and its text view.
func TestTraceDetailsGolden(t *testing.T) {
	ctx := ctxT(t)
	tel := telemetry.New()
	regC, regS := core.NewRegistry(), core.NewRegistry()
	for _, r := range []*core.Registry{regC, regS} {
		r.MustRegister(newMark("mark/fast", 2, 10))
		r.MustRegister(&paramImpl{passImpl: passImpl{info: core.ImplInfo{Name: "pass/fb", Type: "pass", Endpoint: spec.EndpointBoth}}})
		r.MustRegister(&flakyParams{passImpl{info: core.ImplInfo{Name: "pass/flaky", Type: "pass", Priority: 5, Endpoint: spec.EndpointBoth}}})
	}
	srv, _ := core.NewEndpoint("srv", spec.Seq(spec.New("mark"), spec.New("pass")),
		core.WithRegistry(regS), core.WithEnv(core.NewEnv("srvhost")), core.WithTelemetry(tel))
	cli, _ := core.NewEndpoint("cli", spec.Seq(), core.WithRegistry(regC),
		core.WithEnv(core.NewEnv("clihost")), core.WithTelemetry(tel))

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
	accepted := make(chan core.Conn, 1)
	go func() {
		if c, err := nl.Accept(ctx); err == nil {
			accepted <- c
		}
	}()
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

	// A server that never answers: the client's hello times out.
	if _, err := pn.Listen("srvhost", "mute"); err != nil {
		t.Fatal(err)
	}
	raw, err = pn.DialFrom(ctx, "clihost", core.Addr{Net: "pipe", Addr: "mute"})
	if err != nil {
		t.Fatal(err)
	}
	short, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	_, err = cli.Connect(short, raw)
	cancel()
	if err == nil {
		t.Fatal("connect to a mute server succeeded")
	}

	golden := []struct{ side, kind, chunnel, detail string }{
		{"client", telemetry.TraceOfferSent, "", "spec=wrap!() offers=3"},
		{"server", telemetry.TraceHelloRecv, "", "peer=cli host=clihost spec=wrap!() offers=3"},
		{"server", telemetry.TraceFallback, "pass", "params unobtainable: no parameters here"},
		{"server", telemetry.TraceImplChosen, "pass", "priority=0 location=userspace from=client discovered=false"},
		{"server", telemetry.TraceImplChosen, "mark", "priority=10 location=userspace from=client discovered=false"},
		{"server", telemetry.TraceBatchPath, "", "vectored 0/3 layers from the top"},
		{"server", telemetry.TraceConnected, "", "mark=mark/fast → pass=pass/fb"},
		{"client", telemetry.TraceServerHello, "", "peer=srv stack=2 nodes"},
		{"client", telemetry.TraceImplChosen, "mark", "location=userspace owner=client"},
		{"client", telemetry.TraceImplChosen, "pass", "location=userspace owner=client"},
		{"client", telemetry.TraceBatchPath, "", "vectored 0/3 layers from the top"},
		{"client", telemetry.TraceConnected, "", "mark=mark/fast → pass=pass/fb"},
		{"client", telemetry.TraceTeardown, "", "2 impls torn down"},
		{"server", telemetry.TraceTeardown, "", "2 impls torn down"},
		{"client", telemetry.TraceFailed, "", err.Error()},
	}
	type seen struct{ side, kind, chunnel, detail string }
	check := func(view string, evs []seen) {
		t.Helper()
		for _, g := range golden {
			found := false
			for _, e := range evs {
				if e.side == g.side && e.kind == g.kind && e.chunnel == g.chunnel && e.detail == g.detail {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s: no %s %s %s event with detail %q; have %q", view, g.side, g.kind, g.chunnel, g.detail, evs)
			}
		}
	}

	var evs []seen
	for _, e := range tel.Trace().Events() {
		evs = append(evs, seen{e.Side, e.Kind, e.Chunnel, e.Detail})
	}
	check("Events", evs)

	rec := httptest.NewRecorder()
	telemetry.Handler(tel).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/bertha", nil))
	var snap telemetry.Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("/debug/bertha: %v", err)
	}
	evs = evs[:0]
	for _, e := range snap.Trace {
		evs = append(evs, seen{e.Side, e.Kind, e.Chunnel, e.Detail})
	}
	check("/debug/bertha", evs)

	rec = httptest.NewRecorder()
	telemetry.Handler(tel).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/bertha?format=text", nil))
	for _, g := range golden {
		if !strings.Contains(rec.Body.String(), g.detail) {
			t.Errorf("/debug/bertha?format=text: no detail %q", g.detail)
		}
	}
}
