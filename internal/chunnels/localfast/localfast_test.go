package localfast_test

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"github.com/bertha-net/bertha/internal/chunnels/localfast"
	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/spec"
	"github.com/bertha-net/bertha/internal/transport"
)

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// setup builds a server on srvHost with a localfast stack and an IPC
// listener, and a client on cliHost, both over one pipe "network"
// (standing in for UDP) plus a second pipe network standing in for the
// host-local IPC namespace.
func setup(t *testing.T, srvHost, cliHost string) (cli, srv core.Conn) {
	t.Helper()
	ctx := ctxT(t)
	net := transport.NewPipeNetwork() // "the network"
	ipc := transport.NewPipeNetwork() // "host-local IPC"

	regS, regC := core.NewRegistry(), core.NewRegistry()
	localfast.Register(regS)
	localfast.Register(regC)

	envS := core.NewEnv(srvHost)
	ipcL, err := ipc.Listen(srvHost, "app.sock")
	if err != nil {
		t.Fatal(err)
	}
	envS.Provide(localfast.EnvListener, ipcL)
	envS.SetDialer(&transport.MultiDialer{HostID: srvHost, Pipe: ipc})

	envC := core.NewEnv(cliHost)
	envC.SetDialer(&transport.MultiDialer{HostID: cliHost, Pipe: ipc})

	srvEp, err := core.NewEndpoint("container-app", spec.Seq(localfast.Node()),
		core.WithRegistry(regS), core.WithEnv(envS))
	if err != nil {
		t.Fatal(err)
	}
	cliEp, err := core.NewEndpoint("client", spec.Seq(),
		core.WithRegistry(regC), core.WithEnv(envC))
	if err != nil {
		t.Fatal(err)
	}

	baseL, err := net.Listen(srvHost, "svc")
	if err != nil {
		t.Fatal(err)
	}
	nl, err := srvEp.Listen(ctx, baseL)
	if err != nil {
		t.Fatal(err)
	}
	srvCh := make(chan core.Conn, 1)
	go func() {
		c, err := nl.Accept(ctx)
		if err == nil {
			srvCh <- c
		}
	}()
	raw, err := net.DialFrom(ctx, cliHost, core.Addr{Net: "pipe", Addr: "svc"})
	if err != nil {
		t.Fatal(err)
	}
	cconn, err := cliEp.Connect(ctx, raw)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case sconn := <-srvCh:
		t.Cleanup(func() { cconn.Close(); sconn.Close() })
		return cconn, sconn
	case <-time.After(10 * time.Second):
		t.Fatal("server never accepted")
		return nil, nil
	}
}

func TestSameHostUsesIPC(t *testing.T) {
	ctx := ctxT(t)
	cli, srv := setup(t, "hostA", "hostA")
	// Data flows and the spliced conns live on the IPC namespace: their
	// local addresses are "pipe" addresses under app.sock.
	if err := cli.Send(ctx, []byte("fast path")); err != nil {
		t.Fatal(err)
	}
	if m, err := srv.Recv(ctx); err != nil || string(m) != "fast path" {
		t.Fatalf("recv: %q %v", m, err)
	}
	if err := srv.Send(ctx, []byte("reply")); err != nil {
		t.Fatal(err)
	}
	if m, err := cli.Recv(ctx); err != nil || string(m) != "reply" {
		t.Fatalf("reply: %q %v", m, err)
	}
	// The data path really is the IPC listener's namespace.
	if got := srv.LocalAddr().Addr; got != "app.sock" {
		t.Errorf("server data path address %q, want app.sock", got)
	}
	if got := cli.RemoteAddr().Addr; got != "app.sock" {
		t.Errorf("client remote %q, want app.sock", got)
	}
}

func TestCrossHostUsesNetwork(t *testing.T) {
	ctx := ctxT(t)
	cli, srv := setup(t, "hostA", "hostB")
	if err := cli.Send(ctx, []byte("over the network")); err != nil {
		t.Fatal(err)
	}
	if m, err := srv.Recv(ctx); err != nil || string(m) != "over the network" {
		t.Fatalf("recv: %q %v", m, err)
	}
	// The passthrough branch keeps the original network path.
	if got := srv.LocalAddr().Addr; got == "app.sock" {
		t.Error("cross-host connection must not use the IPC path")
	}
}

func TestManySequentialConnections(t *testing.T) {
	// The accept loop and token matching must survive many connections
	// (the Figure 3 experiment runs 10000), over an IPC listener that
	// hands a connection over before its token arrives (pipe) and one
	// that hands it over with the token queued (a unix datagram socket).
	ipc := transport.NewPipeNetwork()
	for _, kind := range []struct {
		name   string
		listen func(t *testing.T) core.Listener
	}{
		{"pipe", func(t *testing.T) core.Listener {
			l, err := ipc.Listen("h", "app.sock")
			if err != nil {
				t.Fatal(err)
			}
			return l
		}},
		{"unix", func(t *testing.T) core.Listener {
			l, err := transport.ListenUnix("h", filepath.Join(t.TempDir(), "app.sock"))
			if err != nil {
				t.Fatal(err)
			}
			return l
		}},
	} {
		t.Run(kind.name, func(t *testing.T) {
			manySequentialConnections(t, ipc, kind.listen(t))
		})
	}
}

func manySequentialConnections(t *testing.T, ipc *transport.PipeNetwork, ipcL core.Listener) {
	ctx := ctxT(t)
	defer ipcL.Close()
	net := transport.NewPipeNetwork()
	reg := core.NewRegistry()
	localfast.Register(reg)

	envS := core.NewEnv("h")
	envS.Provide(localfast.EnvListener, ipcL)
	envS.SetDialer(&transport.MultiDialer{HostID: "h", Pipe: ipc})
	envC := core.NewEnv("h")
	envC.SetDialer(&transport.MultiDialer{HostID: "h", Pipe: ipc})

	srvEp, _ := core.NewEndpoint("srv", spec.Seq(localfast.Node()), core.WithRegistry(reg), core.WithEnv(envS))
	cliEp, _ := core.NewEndpoint("cli", spec.Seq(), core.WithRegistry(reg), core.WithEnv(envC))

	baseL, _ := net.Listen("h", "svc")
	nl, _ := srvEp.Listen(ctx, baseL)
	go func() {
		for {
			c, err := nl.Accept(ctx)
			if err != nil {
				return
			}
			go func(c core.Conn) {
				defer c.Close()
				for {
					m, err := c.Recv(ctx)
					if err != nil {
						return
					}
					if err := c.Send(ctx, m); err != nil {
						return
					}
				}
			}(c)
		}
	}()

	for i := 0; i < 30; i++ {
		raw, err := net.DialFrom(ctx, "h", core.Addr{Net: "pipe", Addr: "svc"})
		if err != nil {
			t.Fatal(err)
		}
		conn, err := cliEp.Connect(ctx, raw)
		if err != nil {
			t.Fatalf("connect %d: %v", i, err)
		}
		if got, want := conn.RemoteAddr(), ipcL.Addr(); got != want {
			t.Fatalf("connection %d: data path %v, want the IPC listener %v", i, got, want)
		}
		for k := 0; k < 3; k++ { // 3 requests per connection, as in Fig. 3
			if err := conn.Send(ctx, []byte{byte(i), byte(k)}); err != nil {
				t.Fatalf("send %d/%d: %v", i, k, err)
			}
			m, err := conn.Recv(ctx)
			if err != nil || m[0] != byte(i) || m[1] != byte(k) {
				t.Fatalf("echo %d/%d: %v %v", i, k, m, err)
			}
		}
		conn.Close()
	}
}
