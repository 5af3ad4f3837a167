package transport

import "github.com/bertha-net/bertha/internal/wire"

// UDP generic receive offload is the receive half of the GSO send path
// (udp_mmsg_linux.go). A UDP socket with UDP_GRO set takes a GSO train
// off the socket in one piece, with a control message giving its
// segment size, where a socket without it has the kernel cut the train
// back into one queued datagram per segment. Off loopback, the device
// coalesces a flow's datagrams into such trains too. The receive paths
// cut a train back into its datagrams here, so everything above the
// socket still sees one Buf per datagram: a view of the train's receive
// buffer (wire.Slab), so the cut copies nothing.

// recvSlot is the payload size of a receive buffer: all of wire's
// largest size class behind DefaultHeadroom. It holds a whole train,
// which a sender caps at gsoMaxBytes (64 000 bytes). Of a longer train
// the buffer keeps the segments that fit whole; a longer datagram is
// dropped as malformed.
const recvSlot = wire.MaxPooled - wire.DefaultHeadroom

// received trims b, a receive buffer the kernel wrote the first bytes of
// a size-byte datagram into — or of a GRO train of seg-byte segments,
// only the last of them short — to the complete datagrams it holds, and
// reports how many that is (k) and how many are lost. A train the buffer
// cut short loses only the segments past its end; a datagram it cut
// short, or one or a segment over MaxDatagram, is lost whole. b holds
// all its length's bytes of the receive, so a size above it says the
// kernel cut the receive (MSG_TRUNC).
func received(b *wire.Buf, size, seg int) (k, lost int) {
	room := b.Len()
	if seg <= 0 || seg >= size {
		if size > room || size > MaxDatagram {
			return 0, 1
		}
		b.Truncate(size)
		return 1, 0
	}
	total := (size + seg - 1) / seg
	switch {
	case seg > MaxDatagram:
		return 0, total
	case size <= room:
		b.Truncate(size)
		return total, 0
	}
	k = room / seg
	b.Truncate(k * seg)
	return k, total - k
}

// splitTrain cuts train, trimmed by received to whole datagrams of seg
// bytes (0: one datagram), into its first len(out) datagrams, oldest
// first, and fills out with them. A lone datagram is train itself.
// Otherwise each is a view of train's backing — the first one keeps
// train's headroom too — and when out does not take every datagram,
// splitTrain returns one more view, holding the rest; nil otherwise.
// Past the views one Slab lends, datagrams are copies in pooled Bufs.
func splitTrain(train *wire.Buf, seg int, out []*wire.Buf) (rest *wire.Buf) {
	p := train.Bytes()
	if seg <= 0 || seg >= len(p) {
		out[0] = train
		return nil
	}
	taken := min(len(out)*seg, len(p))
	views := wire.MaxViews
	if taken < len(p) {
		views-- // one for rest
	}
	headroom := train.Headroom()
	s := wire.Share(train)
	for i := range out {
		lo, hi := i*seg, min((i+1)*seg, len(p))
		switch {
		case i >= views:
			out[i] = wire.NewBufFrom(wire.DefaultHeadroom, p[lo:hi])
		case i == 0:
			out[i] = s.Lend(-headroom, 0, hi)
		default:
			out[i] = s.Lend(lo, lo, hi)
		}
	}
	if taken < len(p) {
		rest = s.Lend(taken, taken, len(p))
	}
	s.Done()
	return rest
}
