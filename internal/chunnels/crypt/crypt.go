// Package crypt implements the encryption chunnel: AES-GCM sealing of
// every message. It is the "encrypt" stage of the paper's §6 pipeline
// example (encrypt |> http2 |> tcp) and registers the optimizer metadata
// that lets the runtime reorder it across framing stages and fuse it with
// the reliability chunnel into "tls" when a fused offload exists.
package crypt

import (
	"context"
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"fmt"

	"github.com/bertha-net/bertha/internal/chunnels/base"
	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/spec"
	"github.com/bertha-net/bertha/internal/wire"
)

// Type is the chunnel type name.
const Type = "encrypt"

// Node builds the DAG node: encrypt(key). The pre-shared key is any
// byte string; it is expanded with SHA-256. (Key exchange is out of
// scope for the prototype, as in the paper.)
func Node(key []byte) spec.Node {
	return spec.New(Type, wire.BytesVal(key))
}

// Register installs the userspace fallback implementation and optimizer
// metadata into reg. A simulated SmartNIC variant can additionally be
// registered with RegisterNIC for §6 experiments.
func Register(reg *core.Registry) {
	reg.MustRegister(fallback())
	// Encryption commutes with framing stages: both ends apply the same
	// reordered stack, so moving encrypt below http2 only changes which
	// bytes are opaque on the wire (§6's reordering example).
	reg.SetTypeMeta(Type, core.TypeMeta{Commutes: []string{"http2", "compress"}})
	reg.AddFusion(Type, "reliable", "tls")
}

// RegisterNIC installs a simulated SmartNIC variant (same wire format,
// higher priority, NIC location) used by the optimizer experiments.
func RegisterNIC(reg *core.Registry) {
	impl := fallback()
	impl.ImplInfo.Name = Type + "/nic"
	impl.ImplInfo.Priority = 30
	impl.ImplInfo.Location = core.LocSmartNIC
	impl.ImplInfo.DiscoveryOnly = true
	reg.MustRegister(impl)
}

func fallback() *base.Impl {
	return &base.Impl{
		ImplInfo: core.ImplInfo{
			Name:     Type + "/aesgcm",
			Type:     Type,
			Endpoint: spec.EndpointBoth,
			Location: core.LocUserspace,
		},
		WrapFn: func(ctx context.Context, conn core.Conn, args, params []wire.Value, side core.Side, env *core.Env) (core.Conn, error) {
			key, err := base.Bytes(Type, args, 0)
			if err != nil {
				return nil, err
			}
			return New(conn, key)
		},
	}
}

// nonceLen is the GCM standard nonce size, the header in front of every
// sealed message (the tag goes into tailroom).
const nonceLen = 12

// DecodeDroppedCounter counts received messages that were too short or
// failed authentication, in the process telemetry registry.
const DecodeDroppedCounter = "chunnel/encrypt/decode_dropped"

// New wraps conn with AES-GCM encryption using the pre-shared key.
func New(conn core.Conn, key []byte) (core.Conn, error) {
	s, err := newSealer(key)
	if err != nil {
		return nil, err
	}
	return core.WrapTransform(conn, s, DecodeDroppedCounter), nil
}

// newSealer keys AES-GCM with the SHA-256 of key.
func newSealer(key []byte) (*sealer, error) {
	sum := sha256.Sum256(key)
	block, err := aes.NewCipher(sum[:])
	if err != nil {
		return nil, fmt.Errorf("encrypt: %w", err)
	}
	aead, err := cipher.NewGCM(block) // standard nonce: nonceLen
	if err != nil {
		return nil, fmt.Errorf("encrypt: %w", err)
	}
	return &sealer{aead: aead}, nil
}

// sealer is the chunnel's datapath: seal and open in place.
type sealer struct {
	aead cipher.AEAD
}

func (s *sealer) Overhead() int { return nonceLen }

// Encode seals the message where it lies: a fresh nonce goes into
// headroom, the plaintext is encrypted in place and the GCM tag lands in
// tailroom — no allocation on the steady-state path.
func (s *sealer) Encode(b *wire.Buf) error {
	plainLen := b.Len()
	if _, err := rand.Read(b.Prepend(nonceLen)); err != nil {
		return fmt.Errorf("encrypt: nonce: %w", err)
	}
	b.Extend(s.aead.Overhead())
	msg := b.Bytes() // nonce | plaintext | tag space
	s.aead.Seal(msg[nonceLen:nonceLen], msg[:nonceLen], msg[nonceLen:nonceLen+plainLen], nil)
	return nil
}

// Decode opens the message in place and trims the nonce and tag off.
func (s *sealer) Decode(b *wire.Buf) (bool, error) {
	sealed := b.Bytes()
	if len(sealed) < nonceLen+s.aead.Overhead() {
		return false, fmt.Errorf("encrypt: short ciphertext (%d bytes)", len(sealed))
	}
	if _, err := s.aead.Open(sealed[nonceLen:nonceLen], sealed[:nonceLen], sealed[nonceLen:], nil); err != nil {
		return false, fmt.Errorf("encrypt: authentication failed: %w", err)
	}
	b.TrimFront(nonceLen)
	b.TrimBack(s.aead.Overhead())
	return true, nil
}
