package transport

import (
	"fmt"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/bertha-net/bertha/internal/wire"
)

// tablePeerKey returns the i-th distinct test key: mostly AddrPorts (the
// UDP fast path), every eighth a string key (the unixgram path).
func tablePeerKey(i int) peerKey {
	if i%8 == 0 {
		return peerKey{s: fmt.Sprintf("/run/peer-%d.sock", i)}
	}
	a := netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)})
	return peerKey{ap: netip.AddrPortFrom(a, uint16(1024+i%4096))}
}

// TestPeerTableGrowthUnderLookups holds thousands of live peers in one
// shard's table, the population a busy reactor listener reaches: 10 k
// inserts across several grow generations while readers probe
// lock-free, then half removed (tombstones) and 10 k more inserted, so a
// grow compacts the tombstones away. A key whose insert finished before
// a lookup started must be found; a found connection must carry the
// key asked for.
func TestPeerTableGrowthUnderLookups(t *testing.T) {
	const (
		first   = 10000
		second  = 10000
		readers = 4
	)
	var tbl peerTable
	conns := make([]*reactorConn, first+second)
	for i := range conns {
		conns[i] = &reactorConn{key: tablePeerKey(i), ring: newConnRing(4)}
	}
	insert := func(i int) {
		tbl.mu.Lock()
		defer tbl.mu.Unlock()
		if tbl.lookupLocked(conns[i].key) != nil {
			t.Errorf("key %d present before its insert", i)
			return
		}
		tbl.insertLocked(conns[i].key, conns[i])
	}

	// published counts the first-phase inserts that have completed; odd
	// keys below it are never removed, so readers must always find them.
	var published atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for n := r; ; n += readers {
				select {
				case <-stop:
					return
				default:
				}
				i := n % len(conns)
				k := conns[i].key
				limit := int(published.Load())
				c := tbl.lookup(k)
				if c != nil && c.key != k {
					t.Errorf("lookup(%v) returned the connection of %v", k, c.key)
					return
				}
				if i < limit && i%2 == 1 && c == nil {
					t.Errorf("key %d inserted before the lookup was not found", i)
					return
				}
				if n%64 == 0 {
					runtime.Gosched()
				}
			}
		}(r)
	}

	gens := map[*peerSlots]bool{}
	for i := 0; i < first; i++ {
		insert(i)
		published.Store(int64(i + 1))
		gens[tbl.slots.Load()] = true
	}
	if len(gens) < 4 {
		t.Errorf("%d inserts used %d table generations, want several grows", first, len(gens))
	}
	for i := 0; i < first; i += 2 {
		tbl.remove(conns[i])
	}
	tbl.mu.Lock()
	if tbl.live != first/2 || tbl.used-tbl.live != first/2 {
		t.Errorf("after removing half: live %d, tombstones %d; want %d each", tbl.live, tbl.used-tbl.live, first/2)
	}
	tbl.mu.Unlock()
	for i := first; i < first+second; i++ {
		insert(i)
	}
	close(stop)
	wg.Wait()

	tbl.mu.Lock()
	live, used := tbl.live, tbl.used
	tbl.mu.Unlock()
	if want := first/2 + second; live != want {
		t.Fatalf("live = %d, want %d", live, want)
	}
	// The second phase outgrew the table, and the grow rebuilt it from
	// live entries only: no tombstone survives.
	if used != live {
		t.Errorf("used = %d with %d live: tombstones were not compacted", used, live)
	}
	for i, c := range conns {
		got := tbl.lookup(c.key)
		if removed := i < first && i%2 == 0; removed && got != nil {
			t.Errorf("removed key %d still found", i)
		} else if !removed && got != c {
			t.Errorf("key %d: lookup = %p, want %p", i, got, c)
		}
	}

	// account sums ring occupancy over live connections only and sizes
	// the current generation.
	b := wire.NewBuf(0, 8)
	conns[1].ring.push(b)
	occupied, tableBytes := tbl.account()
	conns[1].ring.pop().Release()
	if occupied != 1 {
		t.Errorf("account occupancy = %d, want 1", occupied)
	}
	if s := tbl.slots.Load(); tableBytes != int64(len(s.entries))*8 || len(s.entries) < live*4/3 {
		t.Errorf("account table bytes = %d for %d slots holding %d live", tableBytes, len(s.entries), live)
	}
}
