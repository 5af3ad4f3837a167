package transport

import (
	"context"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// otherNamespaceClient is the argument that makes a re-executed test
// binary play TestDialUnixOtherNamespace's client; the quoted listener
// address follows it.
const otherNamespaceClient = "unix-other-namespace-client"

// TestDialUnixOtherNamespace: a client in another network namespace than
// the listener's — a container with the listener's directory mounted —
// binds a socket file beside the listener. An abstract name would be
// bound in the client's namespace, where the listener's reply cannot
// reach it: the listener's send gets ECONNREFUSED. The test re-executes
// its binary as the client in a new user and network namespace, dials
// the listener's advertised address from there and checks that the echo
// comes back over a pathname socket.
func TestDialUnixOtherNamespace(t *testing.T) {
	if args := flag.Args(); len(args) == 2 && args[0] == otherNamespaceClient {
		otherNamespaceEcho(t, args[1])
		return
	}
	if _, err := os.Readlink("/proc/self/ns/net"); err != nil {
		t.Skipf("no network namespace identity to advertise: %v", err)
	}
	dir := t.TempDir()
	l, err := ListenUnix("h", filepath.Join(dir, "srv.sock"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx := ctxT(t)
	peer := make(chan string, 1)
	go func() { // echo one message to the one client
		c, err := l.Accept(ctx)
		if err != nil {
			return
		}
		defer c.Close()
		if m, err := c.Recv(ctx); err == nil {
			peer <- c.RemoteAddr().Addr
			if err := c.Send(ctx, m); err != nil {
				t.Errorf("echo to the client in another namespace: %v", err)
			}
		}
	}()

	cmd := exec.Command(os.Args[0], "-test.run=^TestDialUnixOtherNamespace$", "-test.count=1", "-test.v",
		otherNamespaceClient, strconv.Quote(l.Addr().Addr))
	cmd.SysProcAttr = &syscall.SysProcAttr{
		Cloneflags:  syscall.CLONE_NEWUSER | syscall.CLONE_NEWNET,
		UidMappings: []syscall.SysProcIDMap{{ContainerID: 0, HostID: os.Getuid(), Size: 1}},
		GidMappings: []syscall.SysProcIDMap{{ContainerID: 0, HostID: os.Getgid(), Size: 1}},
	}
	var out strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Skipf("the kernel refuses a new user and network namespace: %v", err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("the client in another network namespace failed: %v\n%s", err, out.String())
	}
	t.Logf("client in another network namespace:\n%s", out.String())
	select {
	case p := <-peer:
		if filepath.Dir(p) != dir {
			t.Errorf("the server addressed the client as %q, want a socket file in %q", p, dir)
		}
	default:
		t.Fatalf("the client passed without its echo reaching the server:\n%s", out.String())
	}
}

// otherNamespaceEcho is the client's side: dial, one echo, close, run in
// its own network namespace.
func otherNamespaceEcho(t *testing.T, quoted string) {
	addr, err := strconv.Unquote(quoted)
	if err != nil {
		t.Fatalf("listener address %s: %v", quoted, err)
	}
	ns, err := os.Readlink("/proc/self/ns/net")
	if err != nil {
		t.Fatal(err)
	}
	if _, srvNS, _ := strings.Cut(addr, "\x00"); srvNS == ns {
		t.Fatalf("the client runs in the listener's network namespace %s", ns)
	}
	c, err := DialUnix("h", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if local := c.LocalAddr().Addr; strings.HasPrefix(local, "\x00") {
		t.Errorf("client bound the abstract name %q", local)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.Send(ctx, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	if m, err := c.Recv(ctx); err != nil || string(m) != "ping" {
		t.Fatalf("echo across network namespaces = %q, %v", m, err)
	}
}
