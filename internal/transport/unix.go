package transport

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"

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
// client binds a socket of its own beside the listener (removed on
// Close), named by clientSockPath.
func DialUnix(hostID, path string) (core.Conn, error) {
	clientPath, err := clientSockPath(path)
	if err != nil {
		return nil, err
	}
	uc, err := net.DialUnix("unixgram",
		&net.UnixAddr{Name: clientPath, Net: "unixgram"}, &net.UnixAddr{Name: path, Net: "unixgram"})
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

// maxUnixPath is the longest socket path a sockaddr_un holds: sun_path
// less its terminating NUL (107 bytes on linux, 103 on the BSDs).
const maxUnixPath = len(syscall.RawSockaddrUnix{}.Path) - 1

// clientSockName is the length of a client socket's name:
// ".<8 hex digits of the process prefix>.<8 hex digits of the count>".
const clientSockName = 1 + 8 + 1 + 8

var (
	// clientSockPrefix tells apart the client sockets of processes that
	// dial listeners in one directory; drawn once per process.
	clientSockPrefix = sync.OnceValue(func() uint32 {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			panic("transport: crypto/rand unavailable: " + err.Error())
		}
		return binary.LittleEndian.Uint32(b[:])
	})
	// clientSockSeq tells apart one process's client sockets.
	clientSockSeq atomic.Uint32
)

// clientSockPath names a new client socket in the directory of the
// listener at server: a short name that does not repeat the listener's,
// so any directory that leaves clientSockName+1 bytes of sun_path free
// takes it, however long the listener's own name is.
func clientSockPath(server string) (string, error) {
	dir := server[:strings.LastIndexByte(server, '/')+1] // "" is the working directory
	if n := len(dir) + clientSockName; n > maxUnixPath {
		return "", fmt.Errorf("transport: client socket beside %q needs %d bytes of path, over the %d-byte sun_path limit", server, n, maxUnixPath)
	}
	var b strings.Builder
	b.Grow(len(dir) + clientSockName)
	b.WriteString(dir)
	b.WriteByte('.')
	writeHex32(&b, clientSockPrefix())
	b.WriteByte('.')
	writeHex32(&b, clientSockSeq.Add(1))
	return b.String(), nil
}

// writeHex32 writes v as eight lower-case hex digits.
func writeHex32(b *strings.Builder, v uint32) {
	const digits = "0123456789abcdef"
	for shift := 28; shift >= 0; shift -= 4 {
		b.WriteByte(digits[v>>uint(shift)&0xf])
	}
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
