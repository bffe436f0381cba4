package client

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"littletable/internal/wire"
)

// aLongTimeAgo is a deadline far in the past, used to interrupt blocked
// reads (cancellation) and to probe idle connections without waiting.
var aLongTimeAgo = time.Unix(1, 0)

// poolConn is one pooled server connection with its framing state.
type poolConn struct {
	conn net.Conn
	wc   *wire.Conn
}

// pool hands out server connections up to a fixed size, redialing broken
// ones. Idle connections are health-checked before reuse, so a server
// restart costs one probe, not one failed request.
type pool struct {
	addr  string
	opts  Options
	stats *Stats

	slots chan struct{} // capacity PoolSize; holding a slot = owning a conn
	done  chan struct{}

	mu     sync.Mutex
	idle   []*poolConn
	closed bool
}

func newPool(addr string, opts Options, stats *Stats) *pool {
	return &pool{
		addr:  addr,
		opts:  opts,
		stats: stats,
		slots: make(chan struct{}, opts.PoolSize),
		done:  make(chan struct{}),
	}
}

// get returns a healthy connection, dialing a fresh one when no idle
// connection survives its health probe. The caller must return it with put.
func (p *pool) get(ctx context.Context) (*poolConn, error) {
	select {
	case p.slots <- struct{}{}:
	case <-p.done:
		return nil, ErrClientClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	// Slot held: reuse an idle conn if one is still alive.
	for {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			<-p.slots
			return nil, ErrClientClosed
		}
		var pc *poolConn
		if n := len(p.idle); n > 0 {
			pc = p.idle[n-1]
			p.idle = p.idle[:n-1]
		}
		p.mu.Unlock()
		if pc == nil {
			break
		}
		if p.healthy(pc) {
			return pc, nil
		}
		// The server hung up while this conn sat idle (restart, drain).
		pc.conn.Close()
		p.stats.Reconnects.Add(1)
	}
	pc, err := p.dial(ctx)
	if err != nil {
		<-p.slots
		return nil, err
	}
	return pc, nil
}

// put returns a connection to the pool; broken ones are closed, never
// reused — their framing state cannot be trusted after a failure.
func (p *pool) put(pc *poolConn, broken bool) {
	if broken {
		pc.conn.Close()
		p.stats.Reconnects.Add(1)
	} else {
		p.mu.Lock()
		if p.closed {
			broken = true
		} else {
			p.idle = append(p.idle, pc)
		}
		p.mu.Unlock()
		if broken {
			pc.conn.Close()
		}
	}
	<-p.slots
}

// healthy probes an idle connection: a past deadline makes the read return
// immediately — with a timeout if the peer is alive and silent, or with
// EOF/reset if it hung up. Idle conns have no buffered data, so reading the
// raw conn (bypassing the framing buffer) is safe.
func (p *pool) healthy(pc *poolConn) bool {
	if err := pc.conn.SetReadDeadline(aLongTimeAgo); err != nil {
		return false
	}
	var b [1]byte
	_, err := pc.conn.Read(b[:])
	if err == nil || !wire.IsTimeout(err) {
		// A stray byte is a protocol violation; anything but a timeout
		// means the conn is dead.
		return false
	}
	return pc.conn.SetReadDeadline(time.Time{}) == nil
}

// dial opens and handshakes one connection under DialTimeout.
func (p *pool) dial(ctx context.Context) (*poolConn, error) {
	d := net.Dialer{Timeout: p.opts.DialTimeout}
	conn, err := d.DialContext(ctx, "tcp", p.addr)
	if err != nil {
		return nil, fmt.Errorf("%w: dial: %v", ErrDisconnected, err)
	}
	pc := &poolConn{conn: conn, wc: wire.NewConn(conn)}
	conn.SetDeadline(time.Now().Add(p.opts.DialTimeout))
	h := &wire.Hello{Version: wire.ProtocolVersion}
	if err := pc.wc.WriteMsg(wire.MsgHello, h.Encode()); err != nil {
		conn.Close()
		return nil, fmt.Errorf("%w: handshake: %v", ErrDisconnected, err)
	}
	mt, resp, err := pc.wc.ReadMsg()
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("%w: handshake: %v", ErrDisconnected, err)
	}
	switch mt {
	case wire.MsgOK:
	case wire.MsgError:
		conn.Close()
		em, derr := wire.DecodeErrorMsg(resp)
		if derr != nil {
			return nil, derr
		}
		return nil, &RemoteError{Msg: em.Message}
	case wire.MsgOverloaded:
		conn.Close()
		p.stats.Overloaded.Add(1)
		return nil, fmt.Errorf("%w: handshake shed", ErrOverloaded)
	default:
		conn.Close()
		return nil, fmt.Errorf("client: unexpected handshake response type %d", mt)
	}
	if err := conn.SetDeadline(time.Time{}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("%w: handshake: %v", ErrDisconnected, err)
	}
	p.stats.Dials.Add(1)
	return pc, nil
}

// close tears the pool down: idle conns are closed now, checked-out conns
// when they come back through put. Blocked get calls return ErrClientClosed.
func (p *pool) close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	close(p.done)
	for _, pc := range idle {
		pc.conn.Close()
	}
}
