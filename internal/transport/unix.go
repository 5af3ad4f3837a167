package transport

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net"
	"os"
	"path/filepath"

	"github.com/bertha-net/bertha/internal/core"
)

// UNIX datagram transport: the efficient same-host IPC path the local
// fast-path chunnel switches to (Listing 1; the paper's prototype uses
// "UNIX named sockets" for host-local connections).

// ListenUnix binds a demultiplexing UNIX datagram listener at path. The
// socket file is removed on Close. hostID labels the listener's host.
func ListenUnix(hostID, path string) (core.Listener, error) {
	ua, err := net.ResolveUnixAddr("unixgram", path)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve unix %q: %w", path, err)
	}
	// Remove a stale socket from a previous run.
	if _, statErr := os.Stat(path); statErr == nil {
		os.Remove(path)
	}
	pc, err := net.ListenUnixgram("unixgram", ua)
	if err != nil {
		return nil, fmt.Errorf("transport: listen unixgram %q: %w", path, err)
	}
	addr := core.Addr{Net: "unix", Host: hostID, Addr: path}
	l := &unixListener{reactorListener: newDemuxListener(unixPC{pc}, addr), path: path}
	l.cfg.Shards = 1
	return l, nil
}

// unixListener runs one reactor goroutine, whatever the configuration
// asks for. Several goroutines taking turns on one socket can swap two
// datagrams a peer sent back to back, and unixgram has no kernel hash
// that could give each of them a socket of its own; a local-fast-path
// client's first message would then overtake its splice token.
type unixListener struct {
	*reactorListener
	path string
}

// ConfigureReactor takes cfg's ring size; the shard count stays 1.
func (l *unixListener) ConfigureReactor(cfg core.ReactorConfig) error {
	cfg.Shards = 1
	return l.reactorListener.ConfigureReactor(cfg)
}

func (l *unixListener) Close() error {
	err := l.reactorListener.Close()
	os.Remove(l.path)
	return err
}

// unixPC adapts net.UnixConn to the packetConn interface (ReadFrom on
// *net.UnixConn returns *net.UnixAddr via the generic method already).
type unixPC struct{ *net.UnixConn }

func (u unixPC) WriteTo(b []byte, addr net.Addr) (int, error) {
	ua, ok := addr.(*net.UnixAddr)
	if !ok {
		return 0, fmt.Errorf("transport: non-unix peer address %T", addr)
	}
	return u.UnixConn.WriteToUnix(b, ua)
}

// DialUnix opens a connected UNIX datagram connection to the server at
// path. Because unixgram servers reply to the client's bound address, the
// client binds a unique socket in the same directory (removed on Close).
func DialUnix(hostID, path string) (core.Conn, error) {
	var suffix [6]byte
	if _, err := rand.Read(suffix[:]); err != nil {
		return nil, fmt.Errorf("transport: random suffix: %w", err)
	}
	clientPath := filepath.Join(filepath.Dir(path),
		fmt.Sprintf(".%s.cli.%d.%s", filepath.Base(path), os.Getpid(), hex.EncodeToString(suffix[:])))
	laddr, err := net.ResolveUnixAddr("unixgram", clientPath)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve %q: %w", clientPath, err)
	}
	raddr, err := net.ResolveUnixAddr("unixgram", path)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve %q: %w", path, err)
	}
	uc, err := net.DialUnix("unixgram", laddr, raddr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial unixgram %q: %w", path, err)
	}
	return &unixConn{
		socketConn: socketConn{
			conn:   uc,
			local:  core.Addr{Net: "unix", Host: hostID, Addr: clientPath},
			remote: core.Addr{Net: "unix", Host: hostID, Addr: path},
			tel:    countersFor("unix"),
			rsem:   make(chan struct{}, 1),
		},
		clientPath: clientPath,
	}, nil
}

type unixConn struct {
	socketConn
	clientPath string
}

func (u *unixConn) Close() error {
	err := u.socketConn.Close()
	os.Remove(u.clientPath)
	return err
}
