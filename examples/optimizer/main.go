// DAG optimization: the §6 example. An application declares
// encrypt |> http2 |> reliable; the host's (simulated) SmartNIC offloads
// encryption and reliability. The optimizer reorders the pipeline so the
// offloaded stages are contiguous at the bottom — cutting host↔NIC data
// movement from 3 crossings to 1 — and, when the NIC instead offers a
// fused TLS engine, merges encrypt+reliable into it. A live connection
// then negotiates a redundant stack with the optimizer enabled.
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/bertha-net/bertha/bertha"
	"github.com/bertha-net/bertha/bertha/transport"
	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/spec"
	"github.com/bertha-net/bertha/internal/wire"
)

func main() {
	printDAG()
	fmt.Println()
	if err := printOptTable(); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	if err := liveRoundTrip(); err != nil {
		log.Fatal(err)
	}
}

// printDAG prints the §3.1 example DAG — wrap!(A(arg) |> B(B::args([C(),
// D()]))) — in the library's notation (the paper's Figure 2).
func printDAG() {
	stack := spec.Seq(
		spec.New("A", wire.Int(7)),
		spec.Select("B", nil, spec.Seq(spec.New("C")), spec.Seq(spec.New("D"))),
	)
	fmt.Println("§3.1 Chunnel DAG")
	fmt.Println("source: bertha::new(\"foo\", wrap!(A(arg) |> B(B::args([C(),D()]))))")
	fmt.Printf("built:  %s\n", stack)
	fmt.Printf("hash:   %s (canonical encoding, used for §4.3 compatibility)\n", stack.Hash())
	fmt.Printf("types:  %v (implementations required: %v)\n", stack.Types(), stack.ConcreteTypes())
}

// candidates lists the connection's implementations per chunnel type:
// encrypt and reliable offloadable on the SmartNIC, http2 software-only,
// and with withTLS a fused TLS offload on the NIC as well.
func candidates(withTLS bool) map[string][]core.Candidate {
	cands := map[string][]core.Candidate{
		"encrypt":  {{Offer: core.ImplOffer{Name: "encrypt/nic", Type: "encrypt", Location: core.LocSmartNIC}}},
		"http2":    {{Offer: core.ImplOffer{Name: "http2/sw", Type: "http2", Location: core.LocUserspace}}},
		"reliable": {{Offer: core.ImplOffer{Name: "reliable/nic", Type: "reliable", Location: core.LocSmartNIC}}},
	}
	if withTLS {
		cands["tls"] = []core.Candidate{{Offer: core.ImplOffer{Name: "tls/nic", Type: "tls", Location: core.LocSmartNIC}}}
	}
	return cands
}

// crossings counts the host↔NIC boundary crossings a sent message makes
// when each stage runs at its best candidate's location.
func crossings(nodes []spec.Node, cands map[string][]core.Candidate) int {
	locs := make([]core.Location, len(nodes))
	for i, n := range nodes {
		best := core.LocUserspace
		for _, c := range cands[n.Type] {
			best = max(best, c.Offer.Location)
		}
		locs[i] = best
	}
	return core.DataPathCost(locs)
}

// printOptTable prints the negotiated order and PCIe crossings of the
// pipeline as written, reordered, and reordered with TLS fusion.
func printOptTable() error {
	pipeline := []spec.Node{
		spec.New("encrypt", wire.BytesVal([]byte("key"))),
		spec.New("http2", wire.Int(16384)),
		spec.New("reliable"),
	}
	reg := core.NewRegistry()
	reg.SetTypeMeta("encrypt", core.TypeMeta{Commutes: []string{"http2"}})
	reg.AddFusion("encrypt", "reliable", "tls")

	reorder := core.NewOptimizer(reg)
	reorder.Merge, reorder.Eliminate = false, false
	rows := []struct {
		config, note string
		opt          *core.Optimizer
		withTLS      bool
	}{
		{"as-written", "encrypt on NIC, framing on CPU: NIC->CPU->NIC bounce", &core.Optimizer{}, false},
		{"reordered", "encrypt moved below framing: one crossing", reorder, false},
		{"reorder+tls-fusion", "encrypt+reliable fused into the NIC's TLS offload", core.NewOptimizer(reg), true},
	}
	fmt.Println("§6 pipeline optimization")
	fmt.Printf("%-20s %-30s %-15s %s\n", "configuration", "negotiated stack", "PCIe crossings", "notes")
	for _, r := range rows {
		cands := candidates(r.withTLS)
		nodes, err := r.opt.Apply(pipeline, cands)
		if err != nil {
			return err
		}
		fmt.Printf("%-20s %-30s %-15d %s\n", r.config, core.Describe(nodes), crossings(nodes, cands), r.note)
	}
	return nil
}

// echo answers every request with its own bytes.
func echo(_ context.Context, req, reply *bertha.Buf) bool {
	reply.Append(req.Bytes())
	return true
}

// liveRoundTrip negotiates compress |> compress |> encrypt |> http2 with
// the optimizer enabled on the server — the redundant compress is
// eliminated — and echoes one message over the resulting connection.
func liveRoundTrip() error {
	ctx := context.Background()
	regS, regC := bertha.NewRegistry(), bertha.NewRegistry()
	bertha.RegisterStandard(regS)
	bertha.RegisterStandard(regC)

	stack := bertha.Wrap(
		bertha.Compress(6),
		bertha.Compress(6), // redundant: eliminated
		bertha.Encrypt([]byte("k")),
		bertha.HTTP2(4096),
	)
	srv, err := bertha.New("opt-server", stack,
		bertha.WithRegistry(regS), bertha.WithOptimizer(bertha.NewOptimizer(regS)))
	if err != nil {
		return err
	}
	net := transport.NewPipeNetwork()
	base, err := net.Listen("server-host", "opt")
	if err != nil {
		return err
	}
	listener, err := srv.Listen(ctx, base)
	if err != nil {
		return err
	}
	go bertha.Serve(ctx, listener, echo)

	cli, err := bertha.New("opt-client", bertha.Wrap(), bertha.WithRegistry(regC))
	if err != nil {
		return err
	}
	raw, err := net.DialFrom(ctx, "client-host", bertha.Addr{Net: "pipe", Addr: "opt"})
	if err != nil {
		return err
	}
	conn, err := cli.Connect(ctx, raw)
	if err != nil {
		return err
	}
	defer conn.Close()
	if err := conn.Send(ctx, []byte("through the optimized stack")); err != nil {
		return err
	}
	m, err := conn.Recv(ctx)
	if err != nil {
		return err
	}
	var negotiated []string
	for _, h := range bertha.ConnHopStats(conn) {
		negotiated = append(negotiated, h.Chunnel)
	}
	fmt.Printf("opt-e2e: declared %s; negotiated %v (echo %d bytes ok)\n", stack, negotiated, len(m))
	return nil
}
