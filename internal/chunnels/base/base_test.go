package base

import (
	"strings"
	"testing"

	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/wire"
)

// TestAddrRoundTrip: an address survives EncodeAddr, the wire and
// DecodeAddr byte for byte, a unix listener's — its path, a NUL and its
// network namespace — included.
func TestAddrRoundTrip(t *testing.T) {
	for _, a := range []core.Addr{
		{Net: "unix", Host: "box", Addr: "/run/app/ipc.sock\x00net:[4026531833]"},
		{Net: "unix", Host: "box", Addr: "/run/app/ipc.sock"},
		{Net: "udp", Host: "h", Addr: "127.0.0.1:4242"},
		{},
	} {
		e := wire.NewEncoder(nil)
		EncodeAddr(a).Encode(e)
		d := wire.NewDecoder(e.Bytes())
		v := wire.DecodeValue(d)
		if err := d.Err(); err != nil {
			t.Fatalf("%q: decode value: %v", a.Addr, err)
		}
		got, err := DecodeAddr(v)
		if err != nil {
			t.Fatalf("%q: %v", a.Addr, err)
		}
		if got != a {
			t.Errorf("round trip of %#v = %#v", a, got)
		}
	}
	addrs := []core.Addr{{Net: "unix", Host: "box", Addr: "/s\x00net:[1]"}, {Net: "udp", Addr: "[::1]:1"}}
	got, err := AddrList("t", []wire.Value{EncodeAddrs(addrs)}, 0)
	if err != nil || len(got) != 2 || got[0] != addrs[0] || got[1] != addrs[1] {
		t.Errorf("AddrList(EncodeAddrs(%q)) = %q, %v", addrs, got, err)
	}
}

// TestDecodeAddrRejectsMalformed: an address is a list of exactly three
// strings; anything else a peer sends is an error, not an address.
func TestDecodeAddrRejectsMalformed(t *testing.T) {
	s := wire.Str
	for _, tc := range []struct {
		name string
		v    wire.Value
		want string
	}{
		{"not a list", s("unix://box//s"), "[net, host, addr]"},
		{"empty", wire.List(), "[net, host, addr]"},
		{"two elements", wire.List(s("unix"), s("box")), "[net, host, addr]"},
		{"four elements", wire.List(s("unix"), s("box"), s("/s"), s("net:[1]")), "[net, host, addr]"},
		{"int net", wire.List(wire.Int(1), s("box"), s("/s")), "must be strings"},
		{"bytes host", wire.List(s("unix"), wire.BytesVal([]byte("box")), s("/s")), "must be strings"},
		{"list addr", wire.List(s("unix"), s("box"), wire.List(s("/s"))), "must be strings"},
		{"nil addr", wire.List(s("unix"), s("box"), wire.Nil()), "must be strings"},
	} {
		a, err := DecodeAddr(tc.v)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: DecodeAddr(%s) = %v, %v; want an error saying %q", tc.name, tc.v, a, err, tc.want)
		}
	}
	if _, err := AddrList("t", []wire.Value{wire.List(EncodeAddr(core.Addr{Net: "udp"}), wire.List(s("udp")))}, 0); err == nil || !strings.Contains(err.Error(), "element 1") {
		t.Errorf("AddrList with a malformed second element: %v, want an error naming element 1", err)
	}
}
