package kv_test

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/bertha-net/bertha/internal/chunnels/shard"
	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/kv"
	"github.com/bertha-net/bertha/internal/spec"
	"github.com/bertha-net/bertha/internal/transport"
	"github.com/bertha-net/bertha/internal/wire"
	"github.com/bertha-net/bertha/internal/ycsb"
)

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestRequestCodecRoundTrip(t *testing.T) {
	cases := []kv.Request{
		{ID: 1, Op: kv.OpGet, Key: "000000000042"},
		{ID: 2, Op: kv.OpPut, Key: "k1", Value: []byte("hello")},
		{ID: 1 << 60, Op: kv.OpUpdate, Key: "x", Value: bytes.Repeat([]byte{7}, 500)},
		{ID: 0, Op: kv.OpDelete, Key: ""},
	}
	for _, r := range cases {
		e := wire.NewEncoder(nil)
		if err := kv.EncodeRequest(e, r); err != nil {
			t.Fatal(err)
		}
		got, err := kv.DecodeRequest(e.Bytes())
		if err != nil {
			t.Fatalf("decode %v: %v", r, err)
		}
		wantKey, _ := kv.PadKey(r.Key)
		if got.ID != r.ID || got.Op != r.Op || got.Key != wantKey || !bytes.Equal(got.Value, r.Value) {
			t.Errorf("round trip: %+v -> %+v", r, got)
		}
	}
}

func TestKeyAtFixedOffset(t *testing.T) {
	// The paper's shard function inspects payload[KeyOffset:]; the codec
	// must put the key exactly there.
	e := wire.NewEncoder(nil)
	kv.EncodeRequest(e, kv.Request{ID: 9, Op: kv.OpGet, Key: "000000001234"})
	raw := e.Bytes()
	if got := string(raw[kv.KeyOffset : kv.KeyOffset+kv.KeyLen]); got != "000000001234" {
		t.Errorf("key at offset %d: %q", kv.KeyOffset, got)
	}
}

func TestRequestCodecErrors(t *testing.T) {
	e := wire.NewEncoder(nil)
	if err := kv.EncodeRequest(e, kv.Request{Key: "this key is way too long"}); err == nil {
		t.Error("oversized key accepted")
	}
	if _, err := kv.DecodeRequest([]byte{1, 2, 3}); err == nil {
		t.Error("short request accepted")
	}
	// Invalid op.
	e.Reset()
	e.PutUint64(1)
	e.PutUint8(99)
	e.PutUint8(0)
	e.PutRaw(make([]byte, kv.KeyLen))
	if _, err := kv.DecodeRequest(e.Bytes()); err == nil {
		t.Error("invalid op accepted")
	}
}

func TestResponseCodecRoundTrip(t *testing.T) {
	f := func(id uint64, status uint8, value []byte) bool {
		r := kv.Response{ID: id, Status: kv.Status(status % 3), Value: value}
		e := wire.NewEncoder(nil)
		kv.EncodeResponse(e, r)
		got, err := kv.DecodeResponse(e.Bytes())
		return err == nil && got.ID == r.ID && got.Status == r.Status && bytes.Equal(got.Value, r.Value)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if _, err := kv.DecodeResponse([]byte{1}); err == nil {
		t.Error("short response accepted")
	}
}

func TestStoreOperations(t *testing.T) {
	s := kv.NewStore()
	key, _ := kv.PadKey("k")
	if resp := s.Apply(kv.Request{ID: 1, Op: kv.OpGet, Key: key}); resp.Status != kv.StatusNotFound {
		t.Errorf("get missing: %s", resp.Status)
	}
	if resp := s.Apply(kv.Request{ID: 2, Op: kv.OpUpdate, Key: key, Value: []byte("v")}); resp.Status != kv.StatusNotFound {
		t.Errorf("update missing: %s", resp.Status)
	}
	if resp := s.Apply(kv.Request{ID: 3, Op: kv.OpPut, Key: key, Value: []byte("v1")}); resp.Status != kv.StatusOK {
		t.Errorf("put: %s", resp.Status)
	}
	if resp := s.Apply(kv.Request{ID: 4, Op: kv.OpGet, Key: key}); resp.Status != kv.StatusOK || string(resp.Value) != "v1" {
		t.Errorf("get: %s %q", resp.Status, resp.Value)
	}
	if resp := s.Apply(kv.Request{ID: 5, Op: kv.OpUpdate, Key: key, Value: []byte("v2")}); resp.Status != kv.StatusOK {
		t.Errorf("update: %s", resp.Status)
	}
	if resp := s.Apply(kv.Request{ID: 6, Op: kv.OpGet, Key: key}); string(resp.Value) != "v2" {
		t.Errorf("get after update: %q", resp.Value)
	}
	if resp := s.Apply(kv.Request{ID: 7, Op: kv.OpDelete, Key: key}); resp.Status != kv.StatusOK {
		t.Errorf("delete: %s", resp.Status)
	}
	if s.Len() != 0 {
		t.Errorf("len after delete: %d", s.Len())
	}
	if resp := s.Apply(kv.Request{ID: 8, Op: kv.Op(99), Key: key}); resp.Status != kv.StatusBadRequest {
		t.Errorf("bad op: %s", resp.Status)
	}
}

func TestStoreValueIsolation(t *testing.T) {
	s := kv.NewStore()
	key, _ := kv.PadKey("k")
	val := []byte("original")
	s.Apply(kv.Request{Op: kv.OpPut, Key: key, Value: val})
	val[0] = 'X' // caller mutation must not leak in
	resp := s.Apply(kv.Request{Op: kv.OpGet, Key: key})
	if string(resp.Value) != "original" {
		t.Error("store shares storage with caller")
	}
	resp.Value[0] = 'Y' // reader mutation must not leak back
	if again := s.Apply(kv.Request{Op: kv.OpGet, Key: key}); string(again.Value) != "original" {
		t.Error("store shares storage with reader")
	}
}

func TestHandleRawMalformed(t *testing.T) {
	s := kv.NewStore()
	resp := s.HandleRaw([]byte{1, 2})
	r, err := kv.DecodeResponse(resp)
	if err != nil || r.Status != kv.StatusBadRequest {
		t.Errorf("malformed request handling: %+v %v", r, err)
	}
}

// startServer builds a 3-shard KV server over a pipe network, with both
// server-side shard impls and the canonical bertha listener.
func startServer(t *testing.T, pn *transport.PipeNetwork, policy core.Policy) (addrs []core.Addr, srv *kv.Server) {
	t.Helper()
	ctx := ctxT(t)
	const nshards = 3
	srv, err := kv.NewServer(nshards)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	for i := 0; i < nshards; i++ {
		l, err := pn.Listen("srvhost", fmt.Sprintf("kv-shard%d", i))
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, l.Addr())
		srv.ServeShard(i, l)
	}

	regS := core.NewRegistry()
	shard.RegisterServer(regS)
	shard.RegisterXDP(regS)
	envS := core.NewEnv("srvhost")
	envS.SetDialer(&transport.MultiDialer{HostID: "srvhost", Pipe: pn})
	envS.Provide(shard.EnvQueues, srv.Queues())

	opts := []core.Option{core.WithRegistry(regS), core.WithEnv(envS)}
	if policy != nil {
		opts = append(opts, core.WithPolicy(policy))
	}
	ep, err := core.NewEndpoint("my-kv-srv", spec.Seq(shard.Node(addrs, kv.ShardFunc(nshards))), opts...)
	if err != nil {
		t.Fatal(err)
	}
	base, err := pn.Listen("srvhost", "kv-canonical")
	if err != nil {
		t.Fatal(err)
	}
	nl, err := ep.Listen(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	srv.ServeSteered(nl)
	return addrs, srv
}

func dialKV(t *testing.T, pn *transport.PipeNetwork, withPush bool) *kv.Client {
	t.Helper()
	ctx := ctxT(t)
	regC := core.NewRegistry()
	if withPush {
		shard.RegisterClient(regC)
	}
	envC := core.NewEnv("clihost")
	envC.SetDialer(&transport.MultiDialer{HostID: "clihost", Pipe: pn})
	ep, err := core.NewEndpoint("kv-client", spec.Seq(), core.WithRegistry(regC), core.WithEnv(envC))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := pn.DialFrom(ctx, "clihost", core.Addr{Net: "pipe", Addr: "kv-canonical"})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := ep.Connect(ctx, raw)
	if err != nil {
		t.Fatal(err)
	}
	c := kv.NewClient(conn)
	t.Cleanup(func() { c.Close() })
	return c
}

func scenarios() map[string]struct {
	policy core.Policy
	push   bool
} {
	return map[string]struct {
		policy core.Policy
		push   bool
	}{
		"client-push":     {nil, true},
		"server-xdp":      {nil, false},
		"server-fallback": {core.PreferImpl(shard.ImplServer), false},
	}
}

func TestKVEndToEndAllScenarios(t *testing.T) {
	for name, sc := range scenarios() {
		t.Run(name, func(t *testing.T) {
			ctx := ctxT(t)
			pn := transport.NewPipeNetwork()
			_, srv := startServer(t, pn, sc.policy)
			cli := dialKV(t, pn, sc.push)

			if err := cli.Put(ctx, "000000000001", []byte("one")); err != nil {
				t.Fatal(err)
			}
			got, err := cli.Get(ctx, "000000000001")
			if err != nil || string(got) != "one" {
				t.Fatalf("get: %q %v", got, err)
			}
			if err := cli.Update(ctx, "000000000001", []byte("uno")); err != nil {
				t.Fatal(err)
			}
			if got, _ := cli.Get(ctx, "000000000001"); string(got) != "uno" {
				t.Fatalf("after update: %q", got)
			}
			if _, err := cli.Get(ctx, "000000009999"); err == nil {
				t.Error("get of missing key should fail")
			}
			if err := cli.Delete(ctx, "000000000001"); err != nil {
				t.Fatal(err)
			}
			if srv.TotalKeys() != 0 {
				t.Errorf("keys after delete: %d", srv.TotalKeys())
			}
		})
	}
}

func TestKVShardPlacement(t *testing.T) {
	ctx := ctxT(t)
	pn := transport.NewPipeNetwork()
	_, srv := startServer(t, pn, nil)
	cli := dialKV(t, pn, true)

	const n = 90
	for i := 0; i < n; i++ {
		if err := cli.Put(ctx, ycsb.Key(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Every key must live on exactly the shard the shard function says.
	total := 0
	for i := 0; i < srv.NumShards(); i++ {
		total += srv.Shard(i).Len()
		if srv.Shard(i).Len() == 0 {
			t.Errorf("shard %d is empty: keys not spread", i)
		}
	}
	if total != n {
		t.Errorf("total keys %d, want %d", total, n)
	}
	for i := 0; i < n; i++ {
		idx, _ := kv.ShardOf(ycsb.Key(i), srv.NumShards())
		key, _ := kv.PadKey(ycsb.Key(i))
		if resp := srv.Shard(idx).Apply(kv.Request{Op: kv.OpGet, Key: key}); resp.Status != kv.StatusOK {
			t.Errorf("key %s not on predicted shard %d", key, idx)
		}
	}
}

func TestKVConcurrentClients(t *testing.T) {
	ctx := ctxT(t)
	pn := transport.NewPipeNetwork()
	startServer(t, pn, nil)

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cli := dialKV(t, pn, g%2 == 0) // mixed: half push, half server-side
			for i := 0; i < 50; i++ {
				key := ycsb.Key(g*1000 + i)
				if err := cli.Put(ctx, key, []byte{byte(g), byte(i)}); err != nil {
					errs <- fmt.Errorf("client %d put %d: %w", g, i, err)
					return
				}
				v, err := cli.Get(ctx, key)
				if err != nil || !bytes.Equal(v, []byte{byte(g), byte(i)}) {
					errs <- fmt.Errorf("client %d get %d: %q %v", g, i, v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestYCSBWorkloadAgainstServer(t *testing.T) {
	ctx := ctxT(t)
	pn := transport.NewPipeNetwork()
	_, srv := startServer(t, pn, nil)

	gen, err := ycsb.NewGenerator(ycsb.Config{
		Workload: ycsb.WorkloadA, Records: 200,
		Dist: ycsb.Uniform, OverrideDist: true,
		ValueSize: 64, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Preload(gen.InitialKeys(), bytes.Repeat([]byte{1}, 64)); err != nil {
		t.Fatal(err)
	}
	if srv.TotalKeys() != 200 {
		t.Fatalf("preload: %d keys", srv.TotalKeys())
	}

	cli := dialKV(t, pn, true)
	for i := 0; i < 500; i++ {
		op := gen.Next()
		switch op.Kind {
		case ycsb.Read:
			if _, err := cli.Get(ctx, op.Key); err != nil {
				t.Fatalf("op %d read %s: %v", i, op.Key, err)
			}
		case ycsb.Update:
			if err := cli.Update(ctx, op.Key, op.Value); err != nil {
				t.Fatalf("op %d update %s: %v", i, op.Key, err)
			}
		}
	}
}
