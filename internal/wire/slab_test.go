package wire

import (
	"bytes"
	"sync"
	"testing"
)

// TestSlabViews lends three views of one backing and checks the view
// rules: each owns only its region, with its headroom in front and no
// tailroom; growing past the region moves the view and leaves its
// neighbours' bytes alone; the backing counts once in BufsOutstanding
// and goes home with the last view.
func TestSlabViews(t *testing.T) {
	base := BufsOutstanding()
	b := NewBufFrom(4, []byte("aaaabbbbbbcccc"))
	s := Share(b)
	// a reaches back into b's headroom; b2 has two bytes of headroom.
	a, b2, c := s.Lend(-4, 0, 4), s.Lend(4, 6, 10), s.Lend(10, 10, 14)
	s.Done()
	if d := BufsOutstanding() - base; d != 1 {
		t.Fatalf("three views of one backing: BufsOutstanding +%d, want +1", d)
	}
	for _, tc := range []struct {
		v                  *Buf
		msg                string
		headroom, tailroom int
	}{{a, "aaaa", 4, 0}, {b2, "bbbb", 2, 0}, {c, "cccc", 0, 0}} {
		if string(tc.v.Bytes()) != tc.msg || tc.v.Headroom() != tc.headroom || tc.v.Tailroom() != tc.tailroom {
			t.Fatalf("view %q: headroom %d, tailroom %d; want %q, %d, %d",
				tc.v.Bytes(), tc.v.Headroom(), tc.v.Tailroom(), tc.msg, tc.headroom, tc.tailroom)
		}
	}

	copy(b2.Prepend(2), "BB") // in place: the view's own headroom
	copy(b2.Extend(2), "XY")  // past the region: moves
	copy(a.Prepend(6), "012345")
	if string(b2.Bytes()) != "BBbbbbXY" || string(a.Bytes()) != "012345aaaa" {
		t.Fatalf("grown views: %q, %q", b2.Bytes(), a.Bytes())
	}
	if string(c.Bytes()) != "cccc" {
		t.Fatalf("neighbour after Extend past a region: %q", c.Bytes())
	}
	c.TrimFront(2)
	copy(c.Prepend(2), "CC")
	if string(c.Bytes()) != "CCcc" {
		t.Fatalf("trim and prepend in place: %q", c.Bytes())
	}

	if p := a.CopyOut(); string(p) != "012345aaaa" || len(p) != cap(p) {
		t.Fatalf("CopyOut of a view = %q (cap %d)", p, cap(p))
	}
	b2.Release()
	if d := BufsOutstanding() - base; d != 1 {
		t.Fatalf("one view left: BufsOutstanding +%d, want +1", d)
	}
	c.Release()
	if d := BufsOutstanding() - base; d != 0 {
		t.Fatalf("every view released: BufsOutstanding +%d, want 0", d)
	}
}

// TestSlabLendAllocs holds lending at zero allocations: the view headers
// come with the pooled Slab.
func TestSlabLendAllocs(t *testing.T) {
	var views [14]*Buf
	lend := func() {
		s := Share(NewBuf(DefaultHeadroom, 14*1200))
		for i := range views {
			views[i] = s.Lend(i*1200, i*1200, (i+1)*1200)
		}
		s.Done()
		for _, v := range views {
			v.Release()
		}
	}
	lend()
	if avg := testing.AllocsPerRun(100, lend); avg != 0 {
		t.Fatalf("lending 14 views of one backing allocates %.2f objects, want 0", avg)
	}
}

// TestSlabConcurrentRelease releases views from several goroutines while
// the lender is still lending, as a reactor's consumers may: the backing
// goes home exactly once, after the last of them and Done (run it under
// -race too).
func TestSlabConcurrentRelease(t *testing.T) {
	base := BufsOutstanding()
	for round := 0; round < 100; round++ {
		s := Share(NewBuf(0, MaxViews*16))
		views := make(chan *Buf, MaxViews)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for v := range views {
					v.Bytes()[0]++
					v.Release()
				}
			}()
		}
		for i := 0; i < MaxViews; i++ {
			views <- s.Lend(i*16, i*16, (i+1)*16)
		}
		s.Done()
		close(views)
		wg.Wait()
		if d := BufsOutstanding() - base; d != 0 {
			t.Fatalf("round %d: BufsOutstanding +%d after every view and Done, want 0", round, d)
		}
	}
}

// viewModel is what FuzzBufView expects of one view.
type viewModel struct {
	v      *Buf
	msg    []byte
	lo, hi int // the view's region, as positions in the backing
	pos    int // where msg starts in the backing; -1 once the view moved
}

// FuzzBufView lends views of random regions and headrooms from one
// backing, with gaps between them, and applies random Prepend, Extend,
// TrimFront, TrimBack, writes, CopyOut, Detach and Release calls to
// random views. Every view matches its model after every call; no byte
// of the backing changes unless a view wrote it inside its own region;
// and the backing counts once in BufsOutstanding until the lender and
// every view are done, then returns to its pool exactly once.
func FuzzBufView(f *testing.F) {
	f.Add([]byte{8, 3, 2, 8, 16, 0, 0, 32, 1, 4, 12, 0, 1, 9, 1, 2, 40, 2, 0, 7, 8, 1, 0, 6, 2, 0})
	f.Add([]byte{0, 63, 0, 0, 1})
	f.Add([]byte{32, 1, 0, 32, 64, 0, 0, 39, 1, 0, 39, 3, 0, 5, 2, 0, 30, 5, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			c := data[0]
			data = data[1:]
			return int(c)
		}
		hr0 := next() % 33
		models := make([]viewModel, 1+next()%MaxViews)
		at := 0 // from the start of the backing; the shared message starts at hr0
		for i := range models {
			at += next() % 8 // gap
			h, l := next()%33, next()%65
			models[i] = viewModel{lo: at, pos: at + h, hi: at + h + l}
			at += h + l
		}
		total := max(at, hr0)

		base := BufsOutstanding()
		b := NewBuf(0, total)
		backing := b.Bytes()
		for i := range backing {
			backing[i] = byte(i*7 + 1)
		}
		want := bytes.Clone(backing)
		b.TrimFront(hr0)
		s := Share(b)
		for i := range models {
			m := &models[i]
			m.v = s.Lend(m.lo-hr0, m.pos-hr0, m.hi-hr0)
			m.msg = bytes.Clone(backing[m.pos:m.hi])
		}
		lending := true
		live := len(models)

		fill := byte(0x80)
		write := func(m *viewModel, p []byte, at int) {
			for i := range p {
				fill++
				p[i] = fill
				if m.pos >= 0 {
					want[m.pos+at+i] = fill
				}
			}
		}
		check := func(op string) {
			t.Helper()
			held := int64(0)
			if lending || live > 0 {
				held = 1
			}
			if d := BufsOutstanding() - base; d != held {
				t.Fatalf("after %s: BufsOutstanding +%d, want +%d", op, d, held)
			}
			if held == 0 {
				return // the backing is back in its pool
			}
			if !bytes.Equal(backing, want) {
				for i := range backing {
					if backing[i] != want[i] {
						t.Fatalf("after %s: backing byte %d is %#x, want %#x", op, i, backing[i], want[i])
					}
				}
			}
			for i := range models {
				m := &models[i]
				if m.v == nil {
					continue
				}
				if !bytes.Equal(m.v.Bytes(), m.msg) {
					t.Fatalf("after %s: view %d holds %q, want %q", op, i, m.v.Bytes(), m.msg)
				}
				if m.pos >= 0 && (m.v.Headroom() != m.pos-m.lo || m.v.Tailroom() != m.hi-m.pos-len(m.msg)) {
					t.Fatalf("after %s: view %d has headroom %d and tailroom %d, want %d and %d",
						op, i, m.v.Headroom(), m.v.Tailroom(), m.pos-m.lo, m.hi-m.pos-len(m.msg))
				}
			}
		}
		check("lending")

		for len(data) > 0 {
			op, m, n := next()%9, &models[next()%len(models)], next()%40
			if op == 8 {
				if lending {
					lending = false
					s.Done()
				}
				check("Done")
				continue
			}
			if m.v == nil {
				continue
			}
			switch op {
			case 0: // Prepend
				if n > m.pos-m.lo {
					m.pos = -1
				} else if m.pos >= 0 {
					m.pos -= n
				}
				p := m.v.Prepend(n)
				if len(p) != n {
					t.Fatalf("Prepend(%d) returned %d bytes", n, len(p))
				}
				write(m, p, 0)
				m.msg = append(bytes.Clone(p), m.msg...)
			case 1: // Extend
				if m.pos >= 0 && m.pos+len(m.msg)+n > m.hi {
					m.pos = -1
				}
				p := m.v.Extend(n)
				write(m, p, len(m.msg))
				m.msg = append(m.msg, p...)
			case 2: // TrimFront
				n = min(n, len(m.msg))
				m.v.TrimFront(n)
				m.msg = m.msg[n:]
				if m.pos >= 0 {
					m.pos += n
				}
			case 3: // TrimBack
				n = min(n, len(m.msg))
				m.v.TrimBack(n)
				m.msg = m.msg[:len(m.msg)-n]
			case 4: // overwrite the message
				write(m, m.v.Bytes(), 0)
				m.msg = bytes.Clone(m.v.Bytes())
			case 5, 6: // CopyOut, Detach
				var p []byte
				if op == 5 {
					p = m.v.CopyOut()
				} else {
					p = m.v.Detach()
				}
				if !bytes.Equal(p, m.msg) || len(p) != cap(p) {
					t.Fatalf("op %d: %q (cap %d), want %q", op, p, cap(p), m.msg)
				}
				m.v, live = nil, live-1
			case 7:
				m.v.Release()
				m.v, live = nil, live-1
			}
			check([...]string{"Prepend", "Extend", "TrimFront", "TrimBack", "write", "CopyOut", "Detach", "Release"}[op])
		}
		if lending {
			s.Done()
		}
		for i := range models {
			if models[i].v != nil {
				models[i].v.Release()
			}
		}
		lending, live = false, 0
		check("the end")
	})
}
