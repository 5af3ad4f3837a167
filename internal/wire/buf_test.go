package wire

import (
	"bytes"
	"testing"
	"unsafe"
)

func TestBufPrependTrim(t *testing.T) {
	b := NewBufFrom(16, []byte("payload"))
	if got := b.Headroom(); got != 16 {
		t.Fatalf("Headroom = %d, want 16", got)
	}
	copy(b.Prepend(4), "hdr:")
	if !bytes.Equal(b.Bytes(), []byte("hdr:payload")) {
		t.Fatalf("after Prepend: %q", b.Bytes())
	}
	b.TrimFront(4)
	if !bytes.Equal(b.Bytes(), []byte("payload")) {
		t.Fatalf("after TrimFront: %q", b.Bytes())
	}
	if got := b.Headroom(); got != 16 {
		t.Fatalf("Headroom after trim round-trip = %d, want 16", got)
	}
	b.Release()
}

func TestBufPrependGrows(t *testing.T) {
	b := NewBufFrom(2, []byte("abc"))
	copy(b.Prepend(8), "12345678")
	if !bytes.Equal(b.Bytes(), []byte("12345678abc")) {
		t.Fatalf("grown prepend: %q", b.Bytes())
	}
	if b.Headroom() != DefaultHeadroom {
		t.Fatalf("headroom after grow = %d, want %d", b.Headroom(), DefaultHeadroom)
	}
	b.Release()
}

func TestBufExtendTrimBack(t *testing.T) {
	b := NewBufFrom(0, []byte("msg"))
	copy(b.Extend(3), "tag")
	if !bytes.Equal(b.Bytes(), []byte("msgtag")) {
		t.Fatalf("after Extend: %q", b.Bytes())
	}
	b.TrimBack(3)
	if !bytes.Equal(b.Bytes(), []byte("msg")) {
		t.Fatalf("after TrimBack: %q", b.Bytes())
	}
	b.Release()
}

func TestBufExtendGrows(t *testing.T) {
	b := NewBuf(0, bufClasses[0])
	for i := range b.Bytes() {
		b.Bytes()[i] = byte(i)
	}
	copy(b.Extend(4), "tail")
	if b.Len() != bufClasses[0]+4 {
		t.Fatalf("Len = %d", b.Len())
	}
	if !bytes.Equal(b.Bytes()[bufClasses[0]:], []byte("tail")) {
		t.Fatalf("tail = %q", b.Bytes()[bufClasses[0]:])
	}
	if b.Bytes()[1] != 1 || b.Bytes()[255] != 255 {
		t.Fatal("payload corrupted by grow")
	}
	b.Release()
}

func TestBufTruncate(t *testing.T) {
	b := NewBuf(8, 100)
	b.Truncate(5)
	if b.Len() != 5 {
		t.Fatalf("Len = %d, want 5", b.Len())
	}
	b.Release()
}

func TestBufCopyOut(t *testing.T) {
	b := NewBufFrom(4, []byte("hello"))
	p := b.CopyOut()
	if !bytes.Equal(p, []byte("hello")) {
		t.Fatalf("CopyOut = %q", p)
	}
	if len(p) != cap(p) {
		t.Fatalf("CopyOut not exact-size: len %d cap %d", len(p), cap(p))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Bytes after CopyOut did not panic")
		}
	}()
	b.Bytes()
}

func TestBufDetach(t *testing.T) {
	b := NewBufFrom(4, []byte("keepme"))
	p := b.Detach()
	if !bytes.Equal(p, []byte("keepme")) {
		t.Fatalf("Detach = %q", p)
	}
	// The detached slice must not be affected by subsequent pool reuse.
	for i := 0; i < 64; i++ {
		nb := NewBuf(4, 6)
		copy(nb.Bytes(), "XXXXXX")
		nb.Release()
	}
	if !bytes.Equal(p, []byte("keepme")) {
		t.Fatalf("detached bytes corrupted: %q", p)
	}

	// A view's bytes belong to its backing, which goes back to the pool
	// with the last view: Detach copies them out first.
	s := Share(NewBufFrom(0, []byte("neighbourkeepme")))
	nb, v := s.Lend(0, 0, 9), s.Lend(9, 9, 15)
	s.Done()
	p = v.Detach()
	nb.Release()
	if !bytes.Equal(p, []byte("keepme")) || len(p) != cap(p) {
		t.Fatalf("Detach of a view = %q (cap %d)", p, cap(p))
	}
	for i := 0; i < 64; i++ {
		nb := NewBuf(0, 15)
		copy(nb.Bytes(), "XXXXXXXXXXXXXXX")
		nb.Release()
	}
	if !bytes.Equal(p, []byte("keepme")) {
		t.Fatalf("bytes detached from a view corrupted by the backing's reuse: %q", p)
	}
}

func TestBufUseAfterRelease(t *testing.T) {
	b := NewBuf(0, 4)
	b.Release()
	b.Release() // double release is a no-op
	defer func() {
		if recover() == nil {
			t.Fatal("use after release did not panic")
		}
	}()
	b.Prepend(1)
}

func TestWrapBuf(t *testing.T) {
	p := []byte("wrapped")
	b := WrapBuf(p)
	if !bytes.Equal(b.Bytes(), p) {
		t.Fatalf("WrapBuf = %q", b.Bytes())
	}
	if b.Headroom() != 0 {
		t.Fatalf("WrapBuf headroom = %d", b.Headroom())
	}
	copy(b.Prepend(2), "x:")
	if !bytes.Equal(b.Bytes(), []byte("x:wrapped")) {
		t.Fatalf("WrapBuf prepend = %q", b.Bytes())
	}
	b.Release()
}

func TestBufClassSelection(t *testing.T) {
	for _, tc := range []struct{ n, class int }{
		{0, 0}, {512, 0}, {513, 1}, {4096, 1}, {60001, 3}, {65536, 3}, {65537, -1},
	} {
		if got := classFor(tc.n); got != tc.class {
			t.Errorf("classFor(%d) = %d, want %d", tc.n, got, tc.class)
		}
	}
	// Oversized buffers work, just unpooled.
	b := NewBuf(0, 70000)
	if b.Len() != 70000 {
		t.Fatalf("oversized Len = %d", b.Len())
	}
	b.Release()
}

func TestBufPoolReuse(t *testing.T) {
	// Steady-state send path should be allocation-free.
	warm := NewBuf(DefaultHeadroom, 100)
	warm.Release()
	allocs := testing.AllocsPerRun(100, func() {
		b := NewBuf(DefaultHeadroom, 100)
		copy(b.Prepend(8), "header88")
		b.TrimFront(8)
		b.Release()
	})
	if allocs > 0 {
		t.Fatalf("pooled round-trip allocates %v/op, want 0", allocs)
	}
}

// TestBufSize holds a Buf to one cache line: a view's slab pointer took
// the padding a field reorder freed.
func TestBufSize(t *testing.T) {
	if n := unsafe.Sizeof(Buf{}); n != 64 {
		t.Fatalf("Buf is %d bytes, want 64", n)
	}
}
