package wire

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// FrontStats count one front end's connection-level robustness events.
// The shard server exports them as its ServerStats. Each field is
// declared once, tag included; see internal/metric.
type FrontStats struct {
	ConnsDroppedDeadline atomic.Int64 `metric:"conns_dropped_deadline" help:"Connections dropped on read/write deadline expiry"`
	ConnsDroppedOversize atomic.Int64 `metric:"conns_dropped_oversize" help:"Connections dropped for oversized request frames"`
	RequestsShed         atomic.Int64 `metric:"requests_shed" help:"Requests refused Overloaded at the max-in-flight admission gate"`
	DrainNs              atomic.Int64 `metric:"drain_ns" help:"Nanoseconds spent draining in-flight requests during Shutdown"`
	RequestsInFlight     atomic.Int64 `metric:"requests_in_flight" help:"Requests past the admission gate right now" kind:"gauge"`
}

// Front is the connection layer every endpoint of the protocol shares —
// the shard server and the router each supply only Dispatch. It owns the
// listeners and the set of open connections, read and write deadlines
// and the read limit, the Hello version check, the per-request busy flag,
// the MaxInFlight admission gate, and drain and close. Clients keep their
// connections open to notice a crashed server (§3.1), so a session is a
// loop of request/response pairs. Set the fields before the first Serve.
type Front struct {
	// Name prefixes log lines and the messages Front answers itself
	// ("server", "router").
	Name string

	// Dispatch answers one request other than Hello. It returns an error
	// only when the session must end; request errors are answered inline.
	Dispatch func(wc *Conn, mt MsgType, payload []byte) error

	// ReadTimeout bounds the wait for each read, so an idle or dead peer
	// is dropped; WriteTimeout bounds each write, so a peer that stops
	// reading cannot pin a handler. MaxRequestBytes caps one request frame
	// (0 means MaxFrame). MaxInFlight caps requests dispatched at once
	// across all connections; beyond it a request is refused Overloaded,
	// unprocessed. Zero turns each off.
	ReadTimeout     time.Duration
	WriteTimeout    time.Duration
	MaxRequestBytes int
	MaxInFlight     int

	Logf  func(format string, args ...interface{})
	Stats FrontStats

	mu       sync.Mutex
	lis      []net.Listener
	conns    map[net.Conn]*atomic.Bool // true while the conn is mid-request
	closed   bool
	draining atomic.Bool
	wg       sync.WaitGroup
}

// Serve accepts connections on lis until Close or Drain, then returns
// nil. Several listeners may be served at once.
func (f *Front) Serve(lis net.Listener) error {
	f.mu.Lock()
	if f.closed || f.draining.Load() {
		f.mu.Unlock()
		return lis.Close()
	}
	if f.conns == nil {
		f.conns = make(map[net.Conn]*atomic.Bool)
	}
	f.lis = append(f.lis, lis)
	f.mu.Unlock()
	for {
		conn, err := lis.Accept()
		f.mu.Lock()
		stopped := f.closed || f.draining.Load()
		if err == nil && !stopped {
			busy := new(atomic.Bool)
			f.conns[conn] = busy
			f.wg.Add(1)
			go func() {
				defer f.wg.Done()
				f.serveConn(conn, busy)
				f.mu.Lock()
				delete(f.conns, conn)
				f.mu.Unlock()
			}()
		}
		f.mu.Unlock()
		switch {
		case stopped:
			if conn != nil {
				conn.Close()
			}
			return nil
		case err != nil:
			return err
		}
	}
}

// ListenAndServe listens on addr and serves it.
func (f *Front) ListenAndServe(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return f.Serve(lis)
}

// serveConn runs one client session. The busy flag brackets each request
// so Drain can wait for responses in flight without waiting on idle
// connections.
func (f *Front) serveConn(conn net.Conn, busy *atomic.Bool) {
	defer conn.Close()
	wc := NewConn(&timeoutConn{Conn: conn, read: f.ReadTimeout, write: f.WriteTimeout})
	wc.SetReadLimit(f.MaxRequestBytes)
	for {
		mt, payload, err := wc.ReadMsg()
		if err != nil {
			switch {
			case errors.Is(err, io.EOF), errors.Is(err, net.ErrClosed):
			case IsTimeout(err):
				f.Stats.ConnsDroppedDeadline.Add(1)
				f.Logf("%s: dropping %s: read deadline expired", f.Name, conn.RemoteAddr())
			case errors.Is(err, ErrFrameTooBig):
				f.Stats.ConnsDroppedOversize.Add(1)
				f.Logf("%s: dropping %s: oversized request frame", f.Name, conn.RemoteAddr())
			default:
				f.Logf("%s: read %s: %v", f.Name, conn.RemoteAddr(), err)
			}
			return
		}
		busy.Store(true)
		err = f.serveRequest(wc, mt, payload)
		busy.Store(false)
		if err != nil {
			if IsTimeout(err) {
				f.Stats.ConnsDroppedDeadline.Add(1)
				f.Logf("%s: dropping %s: write deadline expired", f.Name, conn.RemoteAddr())
			} else {
				f.Logf("%s: conn %s: %v", f.Name, conn.RemoteAddr(), err)
			}
			return
		}
		if f.draining.Load() {
			// The response is out whole; ending the session now lets Drain
			// converge, and the client sees a clean close between requests.
			return
		}
	}
}

// serveRequest applies the admission gate, answers Hello, and hands
// everything else to Dispatch. Overloaded, unlike MsgError, promises the
// request was not processed, so even an insert may be retried after it.
func (f *Front) serveRequest(wc *Conn, mt MsgType, payload []byte) error {
	n := f.Stats.RequestsInFlight.Add(1)
	defer f.Stats.RequestsInFlight.Add(-1)
	if f.MaxInFlight > 0 && n > int64(f.MaxInFlight) {
		f.Stats.RequestsShed.Add(1)
		return wc.WriteError(MsgOverloaded, f.Name+": overloaded, request shed; back off and retry")
	}
	if mt != MsgHello {
		return f.Dispatch(wc, mt, payload)
	}
	h, err := Decode[Hello](payload)
	if err != nil {
		return err
	}
	if h.Version != ProtocolVersion {
		return wc.WriteError(MsgError, fmt.Sprintf("%s: protocol version %d unsupported", f.Name, h.Version))
	}
	return wc.WriteMsg(MsgOK, nil)
}

// Drain stops accepting, closes idle connections, and waits until each
// request already being served has been answered and its connection
// closed, or until ctx expires. It closes nothing else: the endpoint
// can still act between its last request and Close.
func (f *Front) Drain(ctx context.Context) error {
	start := time.Now()
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	first := !f.draining.Swap(true)
	lis := f.lis
	f.lis = nil
	f.mu.Unlock()
	for _, l := range lis {
		l.Close()
	}
	if first {
		defer func() { f.Stats.DrainNs.Add(time.Since(start).Nanoseconds()) }()
	}
	ticker := time.NewTicker(2 * time.Millisecond)
	defer ticker.Stop()
	for f.closeIdle() > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
		}
	}
	return nil
}

// closeIdle closes the connections waiting for their next request and
// returns how many connections are still open.
func (f *Front) closeIdle() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	for conn, busy := range f.conns {
		if !busy.Load() {
			conn.Close()
		}
	}
	return len(f.conns)
}

// Close stops accepting, closes every connection mid-request or not, and
// waits for their sessions to end.
func (f *Front) Close() {
	f.mu.Lock()
	f.closed = true
	lis := f.lis
	f.lis = nil
	for conn := range f.conns {
		conn.Close()
	}
	f.mu.Unlock()
	for _, l := range lis {
		l.Close()
	}
	f.wg.Wait()
}

// Conns returns the number of open client connections.
func (f *Front) Conns() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.conns)
}

// Draining reports whether Drain has begun.
func (f *Front) Draining() bool { return f.draining.Load() }

// WriteError sends an ErrorMsg-bodied message: MsgError, or MsgOverloaded
// for a refusal that left the request unprocessed.
func (c *Conn) WriteError(mt MsgType, msg string) error {
	return c.Send(mt, &ErrorMsg{Message: msg})
}

// timeoutConn arms a fresh deadline before every Read and Write, so a
// stalled peer (half-open TCP, a client that stopped reading its results)
// is dropped instead of pinning a handler goroutine forever. A zero
// timeout leaves that direction without a deadline.
type timeoutConn struct {
	net.Conn
	read, write time.Duration
}

func (c *timeoutConn) Read(p []byte) (int, error) {
	if c.read > 0 {
		if err := c.Conn.SetReadDeadline(time.Now().Add(c.read)); err != nil {
			return 0, err
		}
	}
	return c.Conn.Read(p)
}

func (c *timeoutConn) Write(p []byte) (int, error) {
	if c.write > 0 {
		if err := c.Conn.SetWriteDeadline(time.Now().Add(c.write)); err != nil {
			return 0, err
		}
	}
	return c.Conn.Write(p)
}

// IsTimeout reports whether err is a deadline expiry.
func IsTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
