package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/bertha-net/bertha/internal/spec"
	"github.com/bertha-net/bertha/internal/wire"
)

// fakeImpl is a minimal chunnel implementation for registry and
// negotiation-decision tests.
type fakeImpl struct {
	info   ImplInfo
	params []wire.Value
	inits  int
	tears  int
}

func (f *fakeImpl) Info() ImplInfo { return f.info }
func (f *fakeImpl) Init(ctx context.Context, env *Env, args []wire.Value) error {
	f.inits++
	return nil
}
func (f *fakeImpl) Teardown(ctx context.Context, env *Env) error {
	f.tears++
	return nil
}
func (f *fakeImpl) Wrap(ctx context.Context, conn Conn, args, params []wire.Value, side Side, env *Env) (Conn, error) {
	return conn, nil
}

type fakeParamImpl struct {
	fakeImpl
	params []wire.Value
}

func (f *fakeParamImpl) NegotiateParams(ctx context.Context, env *Env, args []wire.Value) ([]wire.Value, error) {
	return f.params, nil
}

func mkImpl(name, typ string, prio int, loc Location, ep spec.Endpoint) *fakeImpl {
	return &fakeImpl{info: ImplInfo{Name: name, Type: typ, Priority: prio, Location: loc, Endpoint: ep}}
}

func TestRegistryRegisterAndLookup(t *testing.T) {
	r := NewRegistry()
	a := mkImpl("x/fallback", "x", 0, LocUserspace, spec.EndpointBoth)
	b := mkImpl("x/xdp", "x", 20, LocKernel, spec.EndpointServer)
	if err := r.Register(a); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(b); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(a); err == nil {
		t.Error("duplicate registration should fail")
	}
	if err := r.Register(&fakeImpl{info: ImplInfo{Name: "", Type: "y"}}); err == nil {
		t.Error("empty name should fail validation")
	}
	if err := r.Register(&fakeImpl{info: ImplInfo{Name: "bad/scope", Type: "y", Scope: spec.Scope(99)}}); err == nil {
		t.Error("invalid scope should fail validation")
	}
	got, ok := r.Lookup("x/xdp")
	if !ok || got != Impl(b) {
		t.Error("lookup")
	}
	impls := r.ImplsFor("x")
	if len(impls) != 2 || impls[0].Info().Name != "x/xdp" {
		t.Errorf("ImplsFor order: %v", implNames(impls))
	}
	if types := r.Types(); len(types) != 1 || types[0] != "x" {
		t.Errorf("Types: %v", types)
	}
}

func implNames(impls []Impl) []string {
	var out []string
	for _, i := range impls {
		out = append(out, i.Info().Name)
	}
	return out
}

func TestRegistryFallbackEnforcement(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(mkImpl("x/xdp", "x", 20, LocKernel, spec.EndpointServer))
	if _, err := r.Fallback("x"); !errors.Is(err, ErrNoFallback) {
		t.Errorf("kernel-only type should lack fallback: %v", err)
	}
	r.MustRegister(mkImpl("x/fb", "x", 0, LocUserspace, spec.EndpointBoth))
	fb, err := r.Fallback("x")
	if err != nil || fb.Info().Name != "x/fb" {
		t.Errorf("fallback: %v %v", fb, err)
	}
	if err := r.CheckFallbacks(spec.Seq(spec.New("x"), spec.New("missing"))); !errors.Is(err, ErrNoFallback) {
		t.Errorf("CheckFallbacks: %v", err)
	}
}

func TestOfferCodecRoundTrip(t *testing.T) {
	offers := []ImplOffer{
		{Name: "shard/xdp", Type: "shard", Scope: spec.ScopeHost, Endpoint: spec.EndpointServer,
			Priority: 20, Location: LocKernel, Resources: Resources{TableEntries: 16, Bandwidth: 2}, Host: "h1"},
		{Name: "reliable/arq", Type: "reliable", Endpoint: spec.EndpointBoth},
	}
	e := wire.NewEncoder(nil)
	EncodeOffers(e, offers)
	d := wire.NewDecoder(e.Bytes())
	got := DecodeOffers(d)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != offers[0] || got[1] != offers[1] {
		t.Errorf("round trip: %+v", got)
	}
}

func TestHelloCodecs(t *testing.T) {
	ch := &ClientHello{
		Nonce: 0xDEAD,
		Name:  "cli",
		Host:  "h1",
		Spec:  spec.Seq(spec.New("reliable")),
		Offers: []ImplOffer{
			{Name: "reliable/arq", Type: "reliable", Endpoint: spec.EndpointBoth},
		},
	}
	e := wire.NewEncoder(nil)
	ch.Encode(e)
	d := wire.NewDecoder(e.Bytes())
	if mt := d.Uint8(); mt != msgClientHello {
		t.Fatalf("message type %d", mt)
	}
	got, err := DecodeClientHello(d)
	if err != nil {
		t.Fatal(err)
	}
	if got.Nonce != ch.Nonce || got.Name != ch.Name || got.Host != ch.Host || !got.Spec.Equal(ch.Spec) || len(got.Offers) != 1 {
		t.Errorf("client hello round trip: %+v", got)
	}

	sh := &ServerHello{
		Nonce: 1, Name: "srv", Host: "h2",
		Stack: []ResolvedNode{{
			Type: "reliable", Args: []wire.Value{wire.Int(3)}, ImplName: "reliable/arq",
			Endpoint: spec.EndpointBoth, Owner: SideServer, Location: LocUserspace,
			Params: []wire.Value{wire.Str("p")},
		}},
	}
	e.Reset()
	sh.Encode(e)
	d = wire.NewDecoder(e.Bytes())
	if mt := d.Uint8(); mt != msgServerHello {
		t.Fatalf("message type %d", mt)
	}
	gsh, err := DecodeServerHello(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(gsh.Stack) != 1 {
		t.Fatalf("stack: %+v", gsh.Stack)
	}
	rn := gsh.Stack[0]
	if rn.Type != "reliable" || rn.ImplName != "reliable/arq" || rn.Endpoint != spec.EndpointBoth ||
		len(rn.Args) != 1 || len(rn.Params) != 1 {
		t.Errorf("resolved node: %+v", rn)
	}
}

func TestHelloVersionMismatch(t *testing.T) {
	e := wire.NewEncoder(nil)
	e.PutUint8(99) // bogus version
	e.PutUint64(0)
	d := wire.NewDecoder(e.Bytes())
	if _, err := DecodeClientHello(d); !errors.Is(err, ErrNegotiation) {
		t.Errorf("version mismatch: %v", err)
	}
}

func TestMergeSpecs(t *testing.T) {
	a := spec.Seq(spec.New("x"))
	b := spec.Seq(spec.New("y"))
	if got, err := mergeSpecs(spec.Seq(), a); err != nil || !got.Equal(a) {
		t.Errorf("empty client inherits server: %v %v", got, err)
	}
	if got, err := mergeSpecs(a, spec.Seq()); err != nil || !got.Equal(a) {
		t.Errorf("empty server inherits client: %v %v", got, err)
	}
	if got, err := mergeSpecs(a, a.Clone()); err != nil || !got.Equal(a) {
		t.Errorf("equal specs: %v %v", got, err)
	}
	if _, err := mergeSpecs(a, b); !errors.Is(err, ErrIncompatibleSpecs) {
		t.Errorf("conflicting specs: %v", err)
	}
}

func TestDefaultPolicyRanking(t *testing.T) {
	node := spec.New("x")
	cands := []Candidate{
		{Offer: ImplOffer{Name: "x/srv", Type: "x", Priority: 30, Location: LocSwitch}, From: SideServer},
		{Offer: ImplOffer{Name: "x/cli", Type: "x", Priority: 0, Location: LocUserspace}, From: SideClient},
	}
	got, err := DefaultPolicy(node, cands)
	if err != nil {
		t.Fatal(err)
	}
	if got.Offer.Name != "x/cli" {
		t.Errorf("client impl must win over server impl: %s", got.Offer.Name)
	}

	// Same side: higher priority wins.
	cands = []Candidate{
		{Offer: ImplOffer{Name: "x/a", Type: "x", Priority: 5}, From: SideServer},
		{Offer: ImplOffer{Name: "x/b", Type: "x", Priority: 20}, From: SideServer},
	}
	got, _ = DefaultPolicy(node, cands)
	if got.Offer.Name != "x/b" {
		t.Errorf("priority: %s", got.Offer.Name)
	}

	// Same priority: offloaded location wins.
	cands = []Candidate{
		{Offer: ImplOffer{Name: "x/a", Type: "x", Priority: 5, Location: LocUserspace}, From: SideServer},
		{Offer: ImplOffer{Name: "x/b", Type: "x", Priority: 5, Location: LocKernel}, From: SideServer},
	}
	got, _ = DefaultPolicy(node, cands)
	if got.Offer.Name != "x/b" {
		t.Errorf("location: %s", got.Offer.Name)
	}

	// Full tie: lexicographic name, deterministic.
	cands = []Candidate{
		{Offer: ImplOffer{Name: "x/b", Type: "x"}, From: SideServer},
		{Offer: ImplOffer{Name: "x/a", Type: "x"}, From: SideServer},
	}
	got, _ = DefaultPolicy(node, cands)
	if got.Offer.Name != "x/a" {
		t.Errorf("name tiebreak: %s", got.Offer.Name)
	}

	if _, err := DefaultPolicy(node, nil); !errors.Is(err, ErrNoImplementation) {
		t.Errorf("no candidates: %v", err)
	}
}

func TestPolicyCombinators(t *testing.T) {
	node := spec.New("x")
	cands := []Candidate{
		{Offer: ImplOffer{Name: "x/fb", Type: "x", Priority: 0, Location: LocUserspace}, From: SideServer},
		{Offer: ImplOffer{Name: "x/xdp", Type: "x", Priority: 20, Location: LocKernel}, From: SideServer},
	}
	if got, _ := PreferLocation(LocUserspace)(node, cands); got.Offer.Name != "x/fb" {
		t.Errorf("PreferLocation: %s", got.Offer.Name)
	}
	if got, _ := PreferLocation(LocSwitch)(node, cands); got.Offer.Name != "x/xdp" {
		t.Errorf("PreferLocation fallback to default: %s", got.Offer.Name)
	}
	if got, _ := PreferImpl("x/fb")(node, cands); got.Offer.Name != "x/fb" {
		t.Errorf("PreferImpl: %s", got.Offer.Name)
	}
	if got, _ := PreferImpl("nope")(node, cands); got.Offer.Name != "x/xdp" {
		t.Errorf("PreferImpl fallback: %s", got.Offer.Name)
	}
	mixed := append(cands, Candidate{Offer: ImplOffer{Name: "x/cli", Type: "x", Priority: 1}, From: SideClient})
	if got, _ := PreferSide(SideServer)(node, mixed); got.From != SideServer {
		t.Errorf("PreferSide: %+v", got)
	}
}

func TestLocationScopeMatrix(t *testing.T) {
	cases := []struct {
		loc   Location
		scope spec.Scope
		want  bool
	}{
		{LocUserspace, spec.ScopeApplication, true},
		{LocKernel, spec.ScopeApplication, false},
		{LocKernel, spec.ScopeHost, true},
		{LocSmartNIC, spec.ScopeHost, true},
		{LocSwitch, spec.ScopeHost, false},
		{LocSwitch, spec.ScopeLocalNet, true},
		{LocSwitch, spec.ScopeGlobal, true},
		{LocSwitch, spec.ScopeAny, true},
	}
	for _, c := range cases {
		if got := c.loc.AllowedBy(c.scope); got != c.want {
			t.Errorf("%s allowed by %s: got %t want %t", c.loc, c.scope, got, c.want)
		}
	}
}

func TestResolveSelectsDefault(t *testing.T) {
	r := NewRegistry()
	s := spec.Seq(spec.Select("pick", nil,
		spec.Seq(spec.New("unavailable")),
		spec.Seq(spec.New("present"), spec.New("alsopresent")),
	))
	sctx := SelectContext{Available: func(t string) bool { return strings.Contains(t, "present") }}
	nodes, err := resolveSelects(s, r.snapshot(), sctx)
	if err != nil {
		t.Fatal(err)
	}
	if Describe(nodes) != "present |> alsopresent" {
		t.Errorf("resolved: %s", Describe(nodes))
	}

	// No branch available: error.
	sctx.Available = func(string) bool { return false }
	if _, err := resolveSelects(s, r.snapshot(), sctx); !errors.Is(err, ErrNoImplementation) {
		t.Errorf("no branch: %v", err)
	}
}

func TestResolveSelectsCustomResolver(t *testing.T) {
	r := NewRegistry()
	r.RegisterResolver("localfast", func(args []wire.Value, branches []*spec.Stack, sctx SelectContext) (int, error) {
		if sctx.ClientHost == sctx.ServerHost {
			return 0, nil
		}
		return 1, nil
	})
	s := spec.Seq(spec.Select("localfast", nil,
		spec.Seq(spec.New("ipc")),
		spec.Seq(spec.New("net")),
	))
	sctx := SelectContext{ClientHost: "h1", ServerHost: "h1", Available: func(string) bool { return true }}
	nodes, _ := resolveSelects(s, r.snapshot(), sctx)
	if Describe(nodes) != "ipc" {
		t.Errorf("same host: %s", Describe(nodes))
	}
	sctx.ServerHost = "h2"
	nodes, _ = resolveSelects(s, r.snapshot(), sctx)
	if Describe(nodes) != "net" {
		t.Errorf("cross host: %s", Describe(nodes))
	}
}

func TestResolveSelectsNested(t *testing.T) {
	r := NewRegistry()
	inner := spec.Select("in", nil, spec.Seq(spec.New("a")), spec.Seq(spec.New("b")))
	s := spec.Seq(spec.Select("out", nil, spec.Seq(inner, spec.New("c"))))
	sctx := SelectContext{Available: func(t string) bool { return t != "a" }}
	nodes, err := resolveSelects(s, r.snapshot(), sctx)
	if err != nil {
		t.Fatal(err)
	}
	if Describe(nodes) != "b |> c" {
		t.Errorf("nested: %s", Describe(nodes))
	}
}

func TestOptimizerEliminate(t *testing.T) {
	r := NewRegistry()
	r.SetTypeMeta("compress", TypeMeta{Idempotent: true})
	o := NewOptimizer(r)
	nodes := []spec.Node{
		spec.New("compress", wire.Int(1)),
		spec.New("compress", wire.Int(1)),
		spec.New("compress", wire.Int(2)), // different args: keep
		spec.New("reliable"),
		spec.New("reliable"), // not idempotent: keep
	}
	got, err := o.Apply(nodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	if Describe(got) != "compress |> compress |> reliable |> reliable" {
		t.Errorf("eliminate: %s", Describe(got))
	}
}

func TestOptimizerReorderSection6Example(t *testing.T) {
	// encrypt |> http2 |> tcp with a SmartNIC offering encrypt and tcp:
	// reorder to http2 |> encrypt |> tcp (§6).
	r := NewRegistry()
	r.SetTypeMeta("encrypt", TypeMeta{Commutes: []string{"http2"}})
	o := NewOptimizer(r)
	cands := map[string][]Candidate{
		"encrypt": {{Offer: ImplOffer{Name: "encrypt/nic", Type: "encrypt", Location: LocSmartNIC}}},
		"http2":   {{Offer: ImplOffer{Name: "http2/sw", Type: "http2", Location: LocUserspace}}},
		"tcp":     {{Offer: ImplOffer{Name: "tcp/nic", Type: "tcp", Location: LocSmartNIC}}},
	}
	nodes := []spec.Node{spec.New("encrypt"), spec.New("http2"), spec.New("tcp")}
	got, err := o.Apply(nodes, cands)
	if err != nil {
		t.Fatal(err)
	}
	if Describe(got) != "http2 |> encrypt |> tcp" {
		t.Errorf("reorder: %s", Describe(got))
	}

	// Without commutativity metadata, no reorder happens.
	r2 := NewRegistry()
	o2 := NewOptimizer(r2)
	got2, _ := o2.Apply(nodes, cands)
	if Describe(got2) != "encrypt |> http2 |> tcp" {
		t.Errorf("no-commute reorder: %s", Describe(got2))
	}

	// Scope-pinned nodes are never moved.
	r3 := NewRegistry()
	r3.SetTypeMeta("encrypt", TypeMeta{Commutes: []string{"http2"}})
	o3 := NewOptimizer(r3)
	pinned := []spec.Node{spec.New("encrypt").WithScope(spec.ScopeApplication), spec.New("http2"), spec.New("tcp")}
	got3, _ := o3.Apply(pinned, cands)
	if Describe(got3) != "encrypt |> http2 |> tcp" {
		t.Errorf("pinned reorder: %s", Describe(got3))
	}
}

func TestOptimizerMergeTLSFusion(t *testing.T) {
	// §6: NIC offers TLS but not separate encrypt/tcp — reorder then merge.
	r := NewRegistry()
	r.SetTypeMeta("encrypt", TypeMeta{Commutes: []string{"http2"}})
	r.AddFusion("encrypt", "tcp", "tls")
	o := NewOptimizer(r)
	cands := map[string][]Candidate{
		"encrypt": {{Offer: ImplOffer{Name: "encrypt/sw", Type: "encrypt", Location: LocSmartNIC}}},
		"http2":   {{Offer: ImplOffer{Name: "http2/sw", Type: "http2", Location: LocUserspace}}},
		"tcp":     {{Offer: ImplOffer{Name: "tcp/sw", Type: "tcp", Location: LocSmartNIC}}},
		"tls":     {{Offer: ImplOffer{Name: "tls/nic", Type: "tls", Location: LocSmartNIC}}},
	}
	nodes := []spec.Node{spec.New("encrypt", wire.Str("k")), spec.New("http2"), spec.New("tcp", wire.Int(1))}
	got, err := o.Apply(nodes, cands)
	if err != nil {
		t.Fatal(err)
	}
	if Describe(got) != "http2 |> tls" {
		t.Fatalf("merge: %s", Describe(got))
	}
	// Fused node inherits both arg lists.
	if len(got[1].Args) != 2 {
		t.Errorf("fused args: %v", got[1].Args)
	}

	// Without a tls candidate, no merge.
	delete(cands, "tls")
	got2, _ := o.Apply(nodes, cands)
	if Describe(got2) != "http2 |> encrypt |> tcp" {
		t.Errorf("merge without candidate: %s", Describe(got2))
	}
}

func TestDataPathCost(t *testing.T) {
	// §6 example: encrypt(NIC) -> http2(CPU) -> tcp(NIC): 3 crossings.
	before := []Location{LocSmartNIC, LocUserspace, LocSmartNIC}
	if got := DataPathCost(before); got != 3 {
		t.Errorf("before: %d", got)
	}
	// After reorder: http2(CPU) -> encrypt(NIC) -> tcp(NIC): 1 crossing.
	after := []Location{LocUserspace, LocSmartNIC, LocSmartNIC}
	if got := DataPathCost(after); got != 1 {
		t.Errorf("after: %d", got)
	}
	// All userspace: just the final NIC hop.
	if got := DataPathCost([]Location{LocUserspace, LocKernel}); got != 1 {
		t.Errorf("userspace: %d", got)
	}
	if got := DataPathCost(nil); got != 1 {
		t.Errorf("empty: %d", got)
	}
}

func TestCandidateUsableFor(t *testing.T) {
	node := spec.New("x").WithScope(spec.ScopeHost)
	c := Candidate{Offer: ImplOffer{Name: "x/sw", Type: "x", Location: LocSwitch}}
	if c.usableFor(node, "h1", "h2") {
		t.Error("switch impl must not satisfy host scope")
	}
	c.Offer.Location = LocSmartNIC
	if !c.usableFor(node, "h1", "h2") {
		t.Error("smartnic impl satisfies host scope")
	}
	// Discovered host-pinned offload requires host match.
	c = Candidate{Offer: ImplOffer{Name: "x/nic", Type: "x", Location: LocSmartNIC, Host: "h3"}, Discovered: true}
	if c.usableFor(spec.New("x"), "h1", "h2") {
		t.Error("offload on unrelated host must be filtered")
	}
	c.Offer.Host = "h1"
	if !c.usableFor(spec.New("x"), "h1", "h2") {
		t.Error("offload on client host is usable")
	}
	// Switches are in-network: no host match needed.
	c = Candidate{Offer: ImplOffer{Name: "x/sw", Type: "x", Location: LocSwitch, Host: "tor1"}, Discovered: true}
	if !c.usableFor(spec.New("x"), "h1", "h2") {
		t.Error("switch offload usable regardless of host")
	}
}

func TestEnvConfigLogAndResources(t *testing.T) {
	env := NewEnv("h1")
	env.Configure("xdp:eth0", "attach", "shard-prog")
	env.Configure("xdp:eth0", "detach", "shard-prog")
	log := env.ConfigLog()
	if len(log) != 2 || log[0].Action != "attach" || log[1].Action != "detach" {
		t.Errorf("config log: %v", log)
	}
	if !strings.Contains(log[0].String(), "xdp:eth0") {
		t.Errorf("action string: %s", log[0])
	}
	env.Provide("hook", 42)
	if v, ok := env.Lookup("hook"); !ok || v != 42 {
		t.Error("provide/lookup")
	}
	if _, ok := env.Lookup("missing"); ok {
		t.Error("missing lookup")
	}
}

func TestAddrHelpers(t *testing.T) {
	a := Addr{Net: "udp", Host: "h1", Addr: "1.2.3.4:5"}
	b := Addr{Net: "unix", Host: "h1", Addr: "/tmp/x"}
	c := Addr{Net: "udp", Host: "h2", Addr: "1.2.3.4:5"}
	if !a.SameHost(b) || a.SameHost(c) {
		t.Error("SameHost")
	}
	var zero Addr
	if zero.SameHost(zero) {
		t.Error("unknown hosts are never local")
	}
	if !zero.IsZero() || a.IsZero() {
		t.Error("IsZero")
	}
	if a.String() != "udp://h1/1.2.3.4:5" {
		t.Errorf("String: %s", a)
	}
	// A unix listener's address names its network namespace after a
	// NUL; the rendering stays printable.
	ns := Addr{Net: "unix", Host: "h1", Addr: "/tmp/x\x00net:[4026531833]"}
	if got := ns.String(); got != `unix://h1//tmp/x\x00net:[4026531833]` {
		t.Errorf("String with a NUL: %q", got)
	}
	if SideClient.String() != "client" || SideServer.String() != "server" {
		t.Error("side names")
	}
	for l := LocUserspace; l <= LocSwitch; l++ {
		if strings.HasPrefix(l.String(), "Location(") {
			t.Errorf("location %d missing name", l)
		}
	}
	if LocUserspace.Offloaded() || !LocSwitch.Offloaded() {
		t.Error("Offloaded")
	}
}

func TestRequireAttestationPolicy(t *testing.T) {
	node := spec.New("x")
	local := Candidate{Offer: ImplOffer{Name: "x/fb", Type: "x"}, From: SideServer}
	attested := Candidate{
		Offer:      ImplOffer{Name: "x/sw", Type: "x", Priority: 30, Meta: AttestationPrefix + "abc123"},
		From:       SideServer,
		Discovered: true,
	}
	unattested := Candidate{
		Offer:      ImplOffer{Name: "x/rogue", Type: "x", Priority: 40},
		From:       SideServer,
		Discovered: true,
	}
	trusted := map[string]bool{"abc123": true}
	p := RequireAttestation(trusted, nil)

	// The rogue (higher-priority, unattested) offer must lose to the
	// trusted attested one.
	got, err := p(node, []Candidate{local, attested, unattested})
	if err != nil || got.Offer.Name != "x/sw" {
		t.Errorf("attested selection: %+v %v", got, err)
	}
	// With no trusted digests, only local impls remain eligible.
	p2 := RequireAttestation(nil, nil)
	got, err = p2(node, []Candidate{local, attested, unattested})
	if err != nil || got.Offer.Name != "x/fb" {
		t.Errorf("untrusted fallback: %+v %v", got, err)
	}
	// Attestation accessor.
	if d, ok := attested.Offer.Attestation(); !ok || d != "abc123" {
		t.Errorf("Attestation(): %q %t", d, ok)
	}
	if _, ok := local.Offer.Attestation(); ok {
		t.Error("missing attestation should report false")
	}
}

// TestLateCtx checks the close notice's context against the context
// contract: Err is nil and Deadline set until the deadline passes, Done
// closes then, and Err agrees with Done whichever is asked first.
func TestLateCtx(t *testing.T) {
	c := newLateCtx(lateCtrlTimeout)
	if d, ok := c.Deadline(); !ok || time.Until(d) <= 0 || time.Until(d) > lateCtrlTimeout {
		t.Fatalf("Deadline = %v, %v; want one within %v", d, ok, lateCtrlTimeout)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("Err before the deadline = %v", err)
	}
	select {
	case <-c.Done():
	case <-time.After(10 * lateCtrlTimeout):
		t.Fatal("Done not closed at the deadline")
	}
	if err := c.Err(); err != context.DeadlineExceeded {
		t.Fatalf("Err after Done = %v, want DeadlineExceeded", err)
	}

	expired := newLateCtx(-time.Millisecond)
	if err := expired.Err(); err != context.DeadlineExceeded {
		t.Fatalf("Err past the deadline = %v, want DeadlineExceeded", err)
	}
	select {
	case <-expired.Done():
	default:
		t.Fatal("Done asked for past the deadline is not closed")
	}
}

// TestAttemptCtx checks the bound of one wait inside a caller's
// context: a context that ends within one attempt is its own bound;
// otherwise the bound ends helloTimeout from now, and also when the
// parent is cancelled, whether or not its Done channel was asked for
// first, and it carries the parent's values.
func TestAttemptCtx(t *testing.T) {
	type key struct{}
	soon, cancelSoon := context.WithTimeout(context.Background(), helloTimeout/2)
	defer cancelSoon()
	if wait, lc := attemptCtx(soon); wait != soon || lc != nil {
		t.Error("a context that ends within one attempt is not its own bound")
	}
	for _, doneFirst := range []bool{false, true} {
		parent, cancel := context.WithCancel(context.WithValue(context.Background(), key{}, "v"))
		_, c := attemptCtx(parent)
		if d, _ := c.Deadline(); time.Until(d) > helloTimeout {
			t.Errorf("the bound ends in %v, after one attempt", time.Until(d))
		}
		if v := c.Value(key{}); v != "v" {
			t.Errorf("Value = %v, want the parent's", v)
		}
		var done <-chan struct{}
		if doneFirst {
			done = c.Done()
		}
		if err := c.Err(); err != nil {
			t.Fatalf("Err before the parent's end = %v", err)
		}
		cancel()
		if err := c.Err(); err != context.Canceled {
			t.Errorf("Err after the parent's cancel = %v, want Canceled", err)
		}
		if done == nil {
			done = c.Done()
		}
		select {
		case <-done:
		case <-time.After(time.Second):
			t.Fatalf("Done (asked for first: %t) not closed at the parent's cancel", doneFirst)
		}
		c.release()
	}
	// release disarms at once what Done armed, closing its channel, and
	// a nil bound (a context that was its own) has nothing to release.
	parent, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, c := attemptCtx(parent)
	done := c.Done()
	c.release()
	select {
	case <-done:
	default:
		t.Fatal("Done still open after release")
	}
	(*lateCtx)(nil).release()
}
