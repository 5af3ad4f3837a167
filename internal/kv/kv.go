// Package kv implements the sharded key-value store of Listing 4/5 and
// the §5 sharding evaluation: a hashmap-backed store partitioned into
// shards (one worker per shard, the paper's thread-per-shard layout),
// serving Get/Put/Update over the repo's binary wire format atop
// datagram connections.
//
// The wire format places the key at a fixed offset so declarative shard
// functions (and their XDP/switch offloads) can steer requests without
// parsing: requests are
//
//	[id u64][op u8][pad u8][key KeyLen bytes][value ...]
//
// making the key bytes live at offset 10 — matching the paper's example
// shard function hash(p.payload[10..14]).
package kv

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/bertha-net/bertha/internal/wire"
	"github.com/bertha-net/bertha/internal/xdp"
)

// KeyLen is the fixed key width. Keys shorter than KeyLen are
// zero-padded on the left; longer keys are invalid.
const KeyLen = 12

// KeyOffset is the byte offset of the key within a request, fixed by
// the wire layout above.
const KeyOffset = 10

// Op codes.
type Op uint8

// Operations.
const (
	// OpGet reads a key.
	OpGet Op = iota + 1
	// OpPut writes a key (creates or replaces).
	OpPut
	// OpUpdate rewrites an existing key (fails when absent) — the YCSB
	// "update" verb.
	OpUpdate
	// OpDelete removes a key.
	OpDelete
)

// String returns the op name.
func (o Op) String() string {
	switch o {
	case OpGet:
		return "GET"
	case OpPut:
		return "PUT"
	case OpUpdate:
		return "UPDATE"
	case OpDelete:
		return "DELETE"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Status codes.
type Status uint8

// Response statuses.
const (
	// StatusOK indicates success; Get responses carry the value.
	StatusOK Status = iota
	// StatusNotFound indicates the key does not exist.
	StatusNotFound
	// StatusBadRequest indicates a malformed request.
	StatusBadRequest
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusNotFound:
		return "NOT_FOUND"
	case StatusBadRequest:
		return "BAD_REQUEST"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// Request is one client operation.
type Request struct {
	ID    uint64
	Op    Op
	Key   string
	Value []byte
}

// Response is the store's answer.
type Response struct {
	ID     uint64
	Status Status
	Value  []byte
}

// ErrBadKey indicates a key longer than KeyLen.
var ErrBadKey = errors.New("kv: key exceeds fixed width")

// PadKey left-pads a key to KeyLen with zero bytes.
func PadKey(key string) (string, error) {
	if len(key) > KeyLen {
		return "", fmt.Errorf("%w: %q (%d > %d)", ErrBadKey, key, len(key), KeyLen)
	}
	if len(key) == KeyLen {
		return key, nil
	}
	pad := make([]byte, KeyLen-len(key))
	return string(pad) + key, nil
}

// EncodeRequest appends the fixed-layout request encoding.
func EncodeRequest(e *wire.Encoder, r Request) error {
	key, err := PadKey(r.Key)
	if err != nil {
		return err
	}
	e.PutUint64(r.ID)
	e.PutUint8(uint8(r.Op))
	e.PutUint8(0) // pad: key lands at KeyOffset
	e.PutRaw([]byte(key))
	e.PutRaw(r.Value)
	return nil
}

// parseRequest splits a fixed-layout request into its fields without
// copying: key and value alias p. A request too short to hold a key
// still yields its id when it has one (for the bad-request reply).
func parseRequest(p []byte) (id uint64, op Op, key, value []byte, err error) {
	if len(p) >= 8 {
		id = binary.LittleEndian.Uint64(p)
	}
	if len(p) < KeyOffset+KeyLen {
		return id, 0, nil, nil, fmt.Errorf("kv: short request (%d bytes)", len(p))
	}
	op = Op(p[8]) // p[9] is the pad
	if op < OpGet || op > OpDelete {
		return id, 0, nil, nil, fmt.Errorf("kv: invalid op %d", op)
	}
	return id, op, p[KeyOffset : KeyOffset+KeyLen], p[KeyOffset+KeyLen:], nil
}

// DecodeRequest parses a fixed-layout request into a Request of its own:
// nothing in it aliases p.
func DecodeRequest(p []byte) (Request, error) {
	id, op, key, value, err := parseRequest(p)
	if err != nil {
		return Request{}, err
	}
	r := Request{ID: id, Op: op, Key: string(key)}
	if len(value) > 0 {
		r.Value = append([]byte(nil), value...)
	}
	return r, nil
}

// responseHeader is the fixed part of a response: id and status.
const responseHeader = 9

// EncodeResponse appends the response encoding.
func EncodeResponse(e *wire.Encoder, r Response) {
	e.PutUint64(r.ID)
	e.PutUint8(uint8(r.Status))
	e.PutRaw(r.Value)
}

// DecodeResponse parses a response.
func DecodeResponse(p []byte) (Response, error) {
	if len(p) < responseHeader {
		return Response{}, fmt.Errorf("kv: short response (%d bytes)", len(p))
	}
	d := wire.NewDecoder(p)
	r := Response{
		ID:     d.Uint64(),
		Status: Status(d.Uint8()),
	}
	val := d.Raw(d.Remaining())
	if len(val) > 0 {
		r.Value = append([]byte(nil), val...)
	}
	return r, d.Finish()
}

// ShardFunc returns the declarative shard function for nshards: the
// paper's hash(payload[KeyOffset:KeyOffset+KeyLen]) % nshards.
func ShardFunc(nshards int) xdp.FieldHash {
	return xdp.FieldHash{Offset: KeyOffset, Length: KeyLen, Shards: nshards}
}

// ShardOf computes the shard index of a key under nshards.
func ShardOf(key string, nshards int) (int, error) {
	padded, err := PadKey(key)
	if err != nil {
		return 0, err
	}
	probe := make([]byte, KeyOffset+KeyLen)
	copy(probe[KeyOffset:], padded)
	return ShardFunc(nshards).Apply(probe), nil
}
