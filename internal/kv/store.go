package kv

import (
	"context"
	"encoding/binary"
	"sync"

	"github.com/bertha-net/bertha/internal/wire"
)

// Store is one shard's hashmap (the paper's store uses Rust's standard
// hashmap; this is Go's, guarded for concurrent access).
type Store struct {
	mu sync.RWMutex
	// A value is replaced, never written into: a reader may use the slice
	// it found after it has let go of the lock. The indirection lets an
	// update swap the value of an existing key without building a key
	// string to assign under.
	m map[string]*record
}

type record struct{ v []byte }

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{m: make(map[string]*record)}
}

// Len returns the number of keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}

// get returns key's value: shared storage, not to be written to.
func (s *Store) get(key []byte) ([]byte, bool) {
	s.mu.RLock()
	r := s.m[string(key)]
	var v []byte
	if r != nil {
		v = r.v
	}
	s.mu.RUnlock()
	return v, r != nil
}

// set stores a copy of value under key — only when the key exists, if
// mustExist — and reports whether it did.
func (s *Store) set(key, value []byte, mustExist bool) bool {
	v := make([]byte, len(value))
	copy(v, value)
	s.mu.Lock()
	defer s.mu.Unlock()
	if r := s.m[string(key)]; r != nil {
		r.v = v
		return true
	}
	if mustExist {
		return false
	}
	s.m[string(key)] = &record{v: v}
	return true
}

// del removes key and reports whether it was there.
func (s *Store) del(key []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.m[string(key)]
	delete(s.m, string(key))
	return ok
}

// apply executes one operation and returns its status and, for a
// successful get, the stored value (shared storage: copy, don't keep).
// It retains neither key nor value.
func (s *Store) apply(op Op, key, value []byte) (Status, []byte) {
	ok := false
	var out []byte
	switch op {
	case OpGet:
		out, ok = s.get(key)
	case OpPut:
		ok = s.set(key, value, false)
	case OpUpdate:
		ok = s.set(key, value, true)
	case OpDelete:
		ok = s.del(key)
	default:
		return StatusBadRequest, nil
	}
	if !ok {
		return StatusNotFound, nil
	}
	return StatusOK, out
}

// Apply executes one request against the store. The response's value is
// the caller's own copy.
func (s *Store) Apply(r Request) Response {
	status, v := s.apply(r.Op, []byte(r.Key), r.Value)
	resp := Response{ID: r.ID, Status: status}
	if status == StatusOK && r.Op == OpGet {
		resp.Value = append(make([]byte, 0, len(v)), v...)
	}
	return resp
}

// HandleBuf decodes the raw request in req, applies it, and appends the
// encoded response to reply — the common path for every delivery
// mechanism (direct connections, steered queues, forwarded packets). The
// request is decoded in place and the response built straight into
// reply: the only allocation is the store's own copy of a written value.
// Nothing of req is referenced once HandleBuf returns.
func (s *Store) HandleBuf(req, reply *wire.Buf) {
	s.handle(req.Bytes(), reply)
}

// answer is HandleBuf as a core.Handler: every request gets a reply.
func (s *Store) answer(_ context.Context, req, reply *wire.Buf) bool {
	s.HandleBuf(req, reply)
	return true
}

// HandleRaw is HandleBuf for a request held in a plain slice; the
// response is the caller's.
func (s *Store) HandleRaw(p []byte) []byte {
	reply := wire.NewBuf(0, 0)
	s.handle(p, reply)
	return reply.CopyOut()
}

func (s *Store) handle(p []byte, reply *wire.Buf) {
	var value []byte
	id, op, key, val, err := parseRequest(p)
	status := StatusBadRequest
	if err == nil {
		status, value = s.apply(op, key, val)
	}
	// The id of a malformed request is echoed when it has one.
	hdr := reply.Extend(responseHeader)
	binary.LittleEndian.PutUint64(hdr, id)
	hdr[8] = byte(status)
	reply.Append(value)
}
