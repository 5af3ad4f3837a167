// Package lockdisc_a is the golden corpus for the lockdisc analyzer.
package lockdisc_a

import (
	"context"
	"sync"
)

// fakeConn has the blocking data-plane shape lockdisc guards.
type fakeConn struct{}

func (fakeConn) Send(ctx context.Context, p []byte) error { return nil }
func (fakeConn) Recv(ctx context.Context) ([]byte, error) { return nil, nil }

type peer struct {
	mu   sync.Mutex
	wmu  sync.Mutex
	smu  sync.RWMutex
	conn fakeConn
	out  chan int
}

// sendUnderLock holds mu across a blocking conn call.
func (p *peer) sendUnderLock(ctx context.Context, msg []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.conn.Send(ctx, msg) // want `across-send`
}

// recvUnderRLock: read locks block writers just the same.
func (p *peer) recvUnderRLock(ctx context.Context) ([]byte, error) {
	p.smu.RLock()
	defer p.smu.RUnlock()
	return p.conn.Recv(ctx) // want `across-send`
}

// sendAfterUnlock releases before the blocking call: clean.
func (p *peer) sendAfterUnlock(ctx context.Context, msg []byte) error {
	p.mu.Lock()
	seq := len(msg)
	p.mu.Unlock()
	_ = seq
	return p.conn.Send(ctx, msg)
}

// chanSendUnderLock blocks on a channel while holding mu.
func (p *peer) chanSendUnderLock(v int) {
	p.mu.Lock()
	p.out <- v // want `chan-send`
	p.mu.Unlock()
}

// chanSendNonBlocking uses select-with-default under the lock: clean.
func (p *peer) chanSendNonBlocking(v int) {
	p.mu.Lock()
	select {
	case p.out <- v:
	default:
	}
	p.mu.Unlock()
}

// unlockSendRelock is the sanctioned blocking pattern: clean.
func (p *peer) unlockSendRelock(v int) {
	p.mu.Lock()
	select {
	case p.out <- v:
	default:
		p.mu.Unlock()
		p.out <- v
		p.mu.Lock()
	}
	p.mu.Unlock()
}

// doubleLock re-acquires a mutex already held on the same path.
func (p *peer) doubleLock() {
	p.mu.Lock()
	p.mu.Lock() // want `double-lock`
	p.mu.Unlock()
	p.mu.Unlock()
}

// lockForward acquires mu before wmu.
func (p *peer) lockForward() {
	p.mu.Lock()
	p.wmu.Lock() // want `order`
	p.wmu.Unlock()
	p.mu.Unlock()
}

// lockBackward acquires the same pair in the opposite order; together
// with lockForward this is a deadlock-shaped inversion.
func (p *peer) lockBackward() {
	p.wmu.Lock()
	p.mu.Lock()
	p.mu.Unlock()
	p.wmu.Unlock()
}

// peerRef names a pointer to peerAlias, an alias of peer; its mutexes
// are peer's.
type (
	peerAlias = peer
	peerRef   = *peerAlias
)

// lockAliasForward acquires wmu before smu through the aliases; with
// lockAliasBackward on peer itself it is one inversion.
func lockAliasForward(q peerRef) {
	q.wmu.Lock()
	q.smu.Lock()
	q.smu.Unlock()
	q.wmu.Unlock()
}

func (p *peer) lockAliasBackward() {
	p.smu.Lock()
	p.wmu.Lock() // want `order`
	p.wmu.Unlock()
	p.smu.Unlock()
}

// unlockReturnThenSend unlocks only on the branch that returns: the
// path after the if still holds mu when it sends.
func (p *peer) unlockReturnThenSend(ctx context.Context, msg []byte) error {
	p.mu.Lock()
	if len(msg) == 0 {
		p.mu.Unlock()
		return nil
	}
	err := p.conn.Send(ctx, msg) // want `across-send`
	p.mu.Unlock()
	return err
}

// unlockElseReturn is the mirror: the else arm unlocks and returns, the
// then arm keeps mu, and the send after the if is under it.
func (p *peer) unlockElseReturn(ctx context.Context, msg []byte) error {
	p.mu.Lock()
	if len(msg) > 0 {
		msg = msg[1:]
	} else {
		p.mu.Unlock()
		return nil
	}
	err := p.conn.Send(ctx, msg) // want `across-send`
	p.mu.Unlock()
	return err
}

// unlockOnEveryArm releases mu on both arms, one of which returns: the
// send after the if is clean.
func (p *peer) unlockOnEveryArm(ctx context.Context, msg []byte) error {
	p.mu.Lock()
	if len(msg) == 0 {
		p.mu.Unlock()
		return nil
	}
	p.mu.Unlock()
	return p.conn.Send(ctx, msg)
}
