package transport

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"runtime"
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
//
// A socket left at path by an earlier run is removed first; anything
// else there is left alone and fails the listen. The listener's Addr
// carries path and, after a NUL, the identity of the network namespace
// it runs in (netNamespace), when that is known: a NUL cannot occur in a
// path, and DialUnix reads the identity to choose how its client binds.
// A path that starts with '@' is refused: the net package writes an
// abstract name that way, so its clients' names beside it could not be
// told from abstract ones (peerName).
func ListenUnix(hostID, path string) (core.Listener, error) {
	if strings.HasPrefix(path, "@") {
		return nil, fmt.Errorf("transport: listen unixgram %q: a path that starts with '@' reads as an abstract name", path)
	}
	ua, err := net.ResolveUnixAddr("unixgram", path)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve unix %q: %w", path, err)
	}
	if fi, err := os.Lstat(path); err == nil {
		if fi.Mode().Type() != os.ModeSocket {
			return nil, fmt.Errorf("transport: listen unixgram %q: a file that is not a socket is in the way", path)
		}
		os.Remove(path)
	}
	pc, err := net.ListenUnixgram("unixgram", ua)
	if err != nil {
		return nil, fmt.Errorf("transport: listen unixgram %q: %w", path, err)
	}
	addr := core.Addr{Net: "unix", Host: hostID, Addr: path}
	if ns := netNamespace(); ns != "" {
		addr.Addr = path + "\x00" + ns
	}
	l := &unixListener{reactorListener: newDemuxListener(unixPC{pc}, addr), path: path}
	l.cfg.Shards = 1
	l.reoffer = true
	return l, nil
}

// netNamespace identifies the network namespace the process runs in,
// read once: the target of /proc/self/ns/net, such as
// "net:[4026531833]". It is "" wherever that cannot be read, which is
// every platform but linux. Two sockets can reach each other by an
// abstract name only inside one network namespace, and a listener and
// its client that both know the same identity are in one.
var netNamespace = sync.OnceValue(func() string {
	if runtime.GOOS != "linux" {
		return ""
	}
	ns, err := os.Readlink("/proc/self/ns/net")
	if err != nil {
		return ""
	}
	return ns
})

// unixListener runs one reactor goroutine, whatever the configuration
// asks for. Several goroutines taking turns on one socket can swap two
// datagrams a peer sent back to back, and unixgram has no kernel hash
// that could give each of them a socket of its own; a local-fast-path
// client's data would then overtake its resume request. The re-offer of
// what a closing peer held unread (reofferUnread) keeps order on that
// one goroutine too.
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

// DialUnix opens a connected UNIX datagram connection to the listener
// at addr: a listener's Addr().Addr, or a bare socket path. Because
// unixgram servers reply to the client's bound address, the client
// binds a socket of its own, named by clientSockPath. When addr names
// the network namespace the client runs in, the name is abstract and no
// file is created. Otherwise — another namespace, or none named — the
// listener could not answer an abstract name (those are per namespace),
// so the client's socket is a file beside the listener, removed on
// Close. The connection's remote address is addr, as given. Unlike
// DialUDP's, the socket is opened here: a unix client's is used at once.
func DialUnix(hostID, addr string) (core.Conn, error) {
	path, ns, _ := strings.Cut(addr, "\x00")
	var name, file string
	if ns != "" && ns == netNamespace() {
		name = clientSockPath("\x00")
	} else {
		dir := path[:strings.LastIndexByte(path, '/')+1] // "" is the working directory
		if n := len(dir) + clientSockName; n > maxUnixPath {
			return nil, fmt.Errorf("transport: client socket beside %q needs %d bytes of path, over the %d-byte sun_path limit", path, n, maxUnixPath)
		}
		name = clientSockPath(dir)
		file = name
	}
	u := &unixConn{
		socketConn: socketConn{
			local:  core.Addr{Net: "unix", Host: hostID, Addr: name},
			remote: core.Addr{Net: "unix", Host: hostID, Addr: addr},
			tel:    countersFor("unix"),
		},
		file: file,
	}
	if err := u.open(); err != nil {
		return nil, err
	}
	return u, nil
}

// dialUnix makes a unix client's socket, bound to its local name and
// connected to the listener's path.
func (s *socketConn) dialUnix() (net.Conn, error) {
	path, _, _ := strings.Cut(s.remote.Addr, "\x00")
	uc, err := net.DialUnix("unixgram",
		&net.UnixAddr{Name: s.local.Addr, Net: "unixgram"}, &net.UnixAddr{Name: path, Net: "unixgram"})
	if err != nil {
		return nil, fmt.Errorf("transport: dial unixgram %q: %w", path, err)
	}
	return uc, nil
}

// maxUnixPath is the longest socket path a sockaddr_un holds: sun_path
// less its terminating NUL (107 bytes on linux, 103 on the BSDs).
const maxUnixPath = len(syscall.RawSockaddrUnix{}.Path) - 1

// clientSockName is the length of a client socket's name:
// ".<8 hex digits of the process prefix>.<8 hex digits of the count>".
const clientSockName = 1 + 8 + 1 + 8

var (
	// clientSockPrefix tells apart the client sockets of processes that
	// dial listeners in one directory, or in one network namespace;
	// drawn once per process.
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

// clientSockPath names a new client socket: prefix, then a short name
// that does not repeat the listener's, so any directory that leaves
// clientSockName+1 bytes of sun_path free takes it, however long the
// listener's own name is. A prefix of one NUL makes the name abstract,
// which is how the listener's reactor keys the peer as well.
//
// The name is the process's own rather than one the kernel autobinds:
// autobind draws 20-bit names at random, and one could come back while
// the listener still keys a half-closed peer by it. The count does not
// repeat within a process.
func clientSockPath(prefix string) string {
	var b strings.Builder
	b.Grow(len(prefix) + clientSockName)
	b.WriteString(prefix)
	b.WriteByte('.')
	writeHex32(&b, clientSockPrefix())
	b.WriteByte('.')
	writeHex32(&b, clientSockSeq.Add(1))
	return b.String()
}

// writeHex32 writes v as eight lower-case hex digits.
func writeHex32(b *strings.Builder, v uint32) {
	const digits = "0123456789abcdef"
	for shift := 28; shift >= 0; shift -= 4 {
		b.WriteByte(digits[v>>uint(shift)&0xf])
	}
}

// unixConn is a client connection; file is its socket's path, "" for an
// abstract name.
type unixConn struct {
	socketConn
	file string
}

func (u *unixConn) Close() error {
	err := u.socketConn.Close()
	if u.file != "" {
		os.Remove(u.file)
	}
	return err
}
