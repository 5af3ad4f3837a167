package core

import (
	"slices"
	"testing"
	"time"
)

// TestTicketStoreRing: the store holds at most maxTickets values and
// never refuses a put. A put into a full store drops the oldest put
// first, and skips a key that was taken or put again since its put.
func TestTicketStoreRing(t *testing.T) {
	var s ticketStore[int, int]
	t0 := time.Unix(1000, 0)
	for i := 0; i < 3*maxTickets; i++ {
		s.put(i, i, t0)
		if len(s.m) > maxTickets {
			t.Fatalf("after put %d the store holds %d values, over %d", i, len(s.m), maxTickets)
		}
	}
	if v, found, live := s.take(3*maxTickets-1, t0); !found || !live || v != 3*maxTickets-1 {
		t.Fatalf("the newest put reads %d found %t live %t", v, found, live)
	}
	if _, found, _ := s.take(2*maxTickets-1, t0); found {
		t.Fatal("a put older than the last maxTickets is still held")
	}

	// Key 5 was taken and key 7 put again; the next puts that overwrite
	// their ring slots drop only what is still there from those puts.
	var r ticketStore[int, int]
	for i := 0; i < maxTickets; i++ {
		r.put(i, i, t0)
	}
	r.take(5, t0)
	r.put(7, -7, t0) // overwrites the ring slot of key 0
	if _, found, _ := r.take(0, t0); found {
		t.Fatal("the oldest put survived a put into a full store")
	}
	for i := 0; i < 7; i++ { // overwrite the slots of keys 1..7
		r.put(-1-i, 0, t0)
	}
	if len(r.m) != maxTickets {
		t.Errorf("the store holds %d values, want %d", len(r.m), maxTickets)
	}
	for _, k := range []int{1, 2, 3, 4, 6} {
		if _, found, _ := r.take(k, t0); found {
			t.Errorf("key %d survived the put that overwrote its ring slot", k)
		}
	}
	if v, found, _ := r.take(7, t0); !found || v != -7 {
		t.Errorf("key 7, put again, reads %d found %t: its older ring slot dropped it", v, found)
	}
	if _, found, live := r.take(8, t0.Add(ticketTTL)); !found || live {
		t.Errorf("a value read at its expiry: found %t live %t, want found and expired", found, live)
	}
}

// TestTicketStoreExpiry: a put or a take lets go of the values whose TTL
// has passed, oldest first, through onDrop, and stops at the first live
// one; a value taken or put again since its put is skipped, and a take
// still reads its own expired value as found and expired.
func TestTicketStoreExpiry(t *testing.T) {
	var s ticketStore[int, int]
	var dropped []int
	s.onDrop = func(v int) { dropped = append(dropped, v) }
	t0 := time.Unix(1000, 0)
	for i := 0; i < 10; i++ {
		s.put(i, i, t0)
	}
	s.take(3, t0)
	s.put(5, -5, t0.Add(time.Second)) // again, after the others
	for i := 10; i < 13; i++ {
		s.put(i, i, t0.Add(2*time.Second))
	}
	if len(dropped) != 1 || dropped[0] != 5 {
		t.Fatalf("live puts dropped %v, want only the value key 5 was put again over", dropped)
	}
	dropped = nil
	if v, found, live := s.take(0, t0.Add(ticketTTL)); !found || live || v != 0 {
		t.Fatalf("an expired value reads %d found %t live %t, want found and expired", v, found, live)
	}
	if want := []int{1, 2, 4, 6, 7, 8, 9}; !slices.Equal(dropped, want) {
		t.Fatalf("a take at the first puts' expiry dropped %v, want %v", dropped, want)
	}
	dropped = nil
	s.put(20, 20, t0.Add(ticketTTL+time.Second))
	if want := []int{-5}; !slices.Equal(dropped, want) {
		t.Fatalf("a put a second later dropped %v, want %v", dropped, want)
	}
	if len(s.m) != 4 {
		t.Errorf("the store holds %d values, want the 4 live ones", len(s.m))
	}
	dropped = nil
	s.put(21, 21, t0.Add(time.Hour))
	if want := []int{10, 11, 12, 20}; !slices.Equal(dropped, want) {
		t.Fatalf("a put an hour later dropped %v, want %v", dropped, want)
	}
}
