package core

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/bertha-net/bertha/internal/spec"
	"github.com/bertha-net/bertha/internal/wire"
)

// TestRegistrySnapshotFollowsChanges checks that reads share one snapshot
// until a registration or a resolver makes it stale, and that the
// snapshot's derived views — offers, their names and their block — match
// the registry.
func TestRegistrySnapshotFollowsChanges(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(mkImpl("x/fb", "x", 0, LocUserspace, spec.EndpointBoth))
	s1 := r.snapshot()
	if r.snapshot() != s1 {
		t.Fatal("an unchanged registry rebuilt its snapshot")
	}

	hidden := mkImpl("x/op", "x", 30, LocSmartNIC, spec.EndpointServer)
	hidden.info.DiscoveryOnly = true
	r.MustRegister(hidden)
	r.MustRegister(mkImpl("a/fb", "a", 0, LocUserspace, spec.EndpointBoth))
	s2 := r.snapshot()
	if s2 == s1 {
		t.Fatal("Register left the snapshot stale")
	}
	if got := fmt.Sprint(offerNames(s2.offers)); got != "[a/fb x/fb]" {
		t.Errorf("offers %s, want [a/fb x/fb] (types sorted, discovery-only left out)", got)
	}
	if !s2.offered["x/fb"] || s2.offered["x/op"] {
		t.Errorf("offered %v", s2.offered)
	}
	if got := fmt.Sprint(implNames(s2.impls["x"])); got != "[x/op x/fb]" {
		t.Errorf("impls of x %s, want best first", got)
	}
	d := wire.NewDecoder(s2.block)
	if got := DecodeOffers(d); d.Finish() != nil || fmt.Sprint(got) != fmt.Sprint(s2.offers) {
		t.Errorf("block decodes to %v, want the offers", got)
	}

	r.RegisterResolver("pick", func([]wire.Value, []*spec.Stack, SelectContext) (int, error) { return 0, nil })
	if r.snapshot() == s2 {
		t.Fatal("RegisterResolver left the snapshot stale")
	}
	if _, ok := r.Resolver("pick"); !ok {
		t.Error("resolver missing from the snapshot")
	}

	// The public views are copies: a caller cannot edit the snapshot.
	r.ImplsFor("x")[0] = nil
	r.Types()[0] = "zz"
	s3 := r.snapshot()
	if s3.impls["x"][0] == nil || s3.types[0] != "a" {
		t.Error("a public view aliases the snapshot")
	}
}

func offerNames(offers []ImplOffer) []string {
	var out []string
	for _, o := range offers {
		out = append(out, o.Name)
	}
	return out
}

// TestOfferTableSharedPerBlock checks the server side of the offer block:
// one table per block and snapshot, shared by the connections that present
// the block one after another, replaced by a different block, and an
// error for a block that does not decode.
func TestOfferTableSharedPerBlock(t *testing.T) {
	srv := NewRegistry()
	srv.MustRegister(mkImpl("x/fb", "x", 0, LocUserspace, spec.EndpointBoth))
	cli := NewRegistry()
	cli.MustRegister(mkImpl("x/fb", "x", 0, LocUserspace, spec.EndpointBoth))
	cli.MustRegister(mkImpl("y/fb", "y", 0, LocUserspace, spec.EndpointClient))
	block := cli.snapshot().block

	s := srv.snapshot()
	t1, err := s.table(block)
	if err != nil {
		t.Fatal(err)
	}
	if t2, _ := s.table(bytes.Clone(block)); t2 != t1 {
		t.Error("the same block built a second table")
	}
	if !t1.clientSet["y/fb"] || len(t1.client) != 2 {
		t.Errorf("client offers %v", t1.client)
	}
	if c := t1.byType["x"]; len(c) != 2 || c[0].From != SideClient || c[1].From != SideServer {
		t.Errorf("candidates for x: %+v, want the client's then the server's", c)
	}

	// A registration on the server starts a new snapshot, whose table
	// carries the new offer.
	srv.MustRegister(mkImpl("y/srv", "y", 0, LocUserspace, spec.EndpointServer))
	t3, err := srv.snapshot().table(block)
	if err != nil || t3 == t1 || len(t3.byType["y"]) != 2 {
		t.Errorf("table after a server registration: %+v, %v", t3, err)
	}

	if _, err := s.table(block[:len(block)-1]); err == nil {
		t.Error("a truncated block built a table")
	}
	if t2, _ := s.table(block); t2 != t1 {
		t.Error("a block that failed to decode replaced the table")
	}

	// Another client's block replaces the table; its own repeat shares it.
	other := NewRegistry()
	other.MustRegister(mkImpl("z/fb", "z", 0, LocUserspace, spec.EndpointBoth))
	t4, err := s.table(other.snapshot().block)
	if err != nil || t4 == t1 || !t4.clientSet["z/fb"] {
		t.Fatalf("table for another block: %+v, %v", t4, err)
	}
	if t5, _ := s.table(other.snapshot().block); t5 != t4 {
		t.Error("a repeated block built a second table")
	}
	if t6, _ := s.table(block); t6 == t1 || !t6.clientSet["y/fb"] {
		t.Errorf("the first block again: %+v", t6)
	}
}

// TestHelloOfferBlockIsTheEncoding checks that a hello carrying the
// snapshot's offer block is byte for byte the hello that encodes its
// offers, so the block changes nothing on the wire.
func TestHelloOfferBlockIsTheEncoding(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(mkImpl("x/fb", "x", 0, LocUserspace, spec.EndpointBoth))
	r.MustRegister(mkImpl("x/xdp", "x", 20, LocKernel, spec.EndpointServer))
	s := r.snapshot()
	h := ClientHello{Nonce: 7, Name: "cli", Host: "h", Spec: spec.Seq(spec.New("x")), Offers: s.offers}
	plain := encodeHello(&h)
	h.offerBlock = s.block
	if got := encodeHello(&h); !bytes.Equal(got, plain) {
		t.Fatalf("hello with the offer block:\n%x\nwant\n%x", got, plain)
	}
}

// FuzzClientHello feeds arbitrary bytes to both ways a ClientHello is
// read: DecodeClientHello, and the server's head decode plus offer-table
// lookup. They must accept the same messages and agree on the offers.
func FuzzClientHello(f *testing.F) {
	r := NewRegistry()
	r.MustRegister(mkImpl("x/fb", "x", 0, LocUserspace, spec.EndpointBoth))
	r.MustRegister(mkImpl("y/xdp", "y", 20, LocKernel, spec.EndpointServer))
	s := r.snapshot()
	h := ClientHello{Nonce: 1, Name: "cli", Host: "h", Spec: spec.Seq(spec.New("x")), offerBlock: s.block}
	f.Add(encodeHello(&h)[1:]) // after the message-type byte, as the server reads it
	h.Spec = spec.Seq()
	f.Add(encodeHello(&h)[1:])
	f.Add([]byte{protoVersion})
	f.Fuzz(func(t *testing.T, msg []byte) {
		full, errFull := DecodeClientHello(wire.NewDecoder(msg))
		head, block, err := decodeHelloHead(wire.NewDecoder(msg))
		if err == nil {
			var tab *offerTable
			if tab, err = s.table(block); err == nil {
				head.Offers = tab.client
			}
		}
		if (errFull == nil) != (err == nil) {
			t.Fatalf("DecodeClientHello err %v, head+table err %v", errFull, err)
		}
		if errFull == nil && fmt.Sprint(full.Offers) != fmt.Sprint(head.Offers) {
			t.Fatalf("offers %v vs %v", full.Offers, head.Offers)
		}
	})
}

// TestSnapshotConcurrentUse has connections' readers — snapshots, offer
// tables, lookups — race registrations. Run it under -race.
func TestSnapshotConcurrentUse(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(mkImpl("x/fb", "x", 0, LocUserspace, spec.EndpointBoth))
	cli := NewRegistry()
	cli.MustRegister(mkImpl("x/fb", "x", 0, LocUserspace, spec.EndpointBoth))
	block := cli.snapshot().block
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			r.MustRegister(mkImpl(fmt.Sprintf("x/%d", i), "x", i, LocUserspace, spec.EndpointBoth))
		}
	}()
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			for i := 0; i < 200; i++ {
				s := r.snapshot()
				tab, err := s.table(block)
				if err != nil {
					errs <- err
					return
				}
				if len(tab.byType["x"]) != 1+len(s.impls["x"]) {
					errs <- fmt.Errorf("table has %d candidates for x, snapshot %d impls + 1 client offer",
						len(tab.byType["x"]), len(s.impls["x"]))
					return
				}
				r.Lookup("x/fb")
			}
			errs <- nil
		}()
	}
	for g := 0; g < 4; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	<-done
}
