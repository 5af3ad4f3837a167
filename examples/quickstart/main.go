// Quickstart: the smallest complete Bertha program. A server declares a
// two-chunnel DAG (serialization over reliability, §3.1); a client
// declares none and inherits the server's chunnels during negotiation
// (Listing 5). Runs entirely in-process.
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/bertha-net/bertha/bertha"
	"github.com/bertha-net/bertha/bertha/transport"
)

// echo is the server's handler: req is only valid until it returns, and
// what it appends to reply is sent when it returns true.
func echo(_ context.Context, req, reply *bertha.Buf) bool {
	reply.Append([]byte("echo: "))
	reply.Append(req.Bytes())
	return true
}

func main() {
	ctx := context.Background()

	// Applications register fallback implementations at launch
	// (Listing 5 line 2). RegisterStandard installs the fallbacks for
	// every shipped chunnel.
	regServer, regClient := bertha.NewRegistry(), bertha.NewRegistry()
	bertha.RegisterStandard(regServer)
	bertha.RegisterStandard(regClient)

	// An in-process datagram network stands in for UDP.
	net := transport.NewPipeNetwork()

	// Server: bertha::new("echo-server", wrap!(serialize() |> reliable())).
	srv, err := bertha.New("echo-server",
		bertha.Wrap(bertha.Serialize(), bertha.Reliable()),
		bertha.WithRegistry(regServer))
	if err != nil {
		log.Fatal(err)
	}
	base, err := net.Listen("server-host", "echo")
	if err != nil {
		log.Fatal(err)
	}
	listener, err := srv.Listen(ctx, base)
	if err != nil {
		log.Fatal(err)
	}
	// bertha.Serve is the serving loop: it hands every request to the
	// handler and sends what the handler appends to reply back on the
	// request's connection.
	go bertha.Serve(ctx, listener, echo)

	// Client: wrap!() — the chunnels used are dictated by the server.
	cli, err := bertha.New("echo-client", bertha.Wrap(), bertha.WithRegistry(regClient))
	if err != nil {
		log.Fatal(err)
	}
	raw, err := net.DialFrom(ctx, "client-host", bertha.Addr{Net: "pipe", Addr: "echo"})
	if err != nil {
		log.Fatal(err)
	}
	conn, err := cli.Connect(ctx, raw) // negotiation happens here (§4.3)
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()

	for _, msg := range []string{"hello", "chunnels", "compose"} {
		if err := conn.Send(ctx, []byte(msg)); err != nil {
			log.Fatal(err)
		}
		reply, err := conn.Recv(ctx)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s -> %s\n", msg, reply)
	}
	fmt.Println("quickstart: negotiated stack carried serialized, reliable traffic")
}
