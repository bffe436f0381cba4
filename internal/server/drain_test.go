package server

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"syscall"
	"testing"
	"time"

	"littletable/internal/wire"
)

// onlyConnState returns the connState of the server's single registered
// connection, waiting briefly for the accept goroutine to register it.
func onlyConnState(t *testing.T, s *Server) *connState {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		s.mu.Lock()
		if len(s.conns) == 1 {
			for _, st := range s.conns {
				s.mu.Unlock()
				return st
			}
		}
		s.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	t.Fatal("connection never registered")
	return nil
}

func dialWire(t *testing.T, addr net.Addr) (net.Conn, *wire.Conn) {
	t.Helper()
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	return conn, wire.NewConn(conn)
}

func TestShutdownClosesIdleConns(t *testing.T) {
	s := newServer(t, t.TempDir())
	addr := serveTCP(t, s)
	conn, wc := dialWire(t, addr)
	h := &wire.Hello{Version: wire.ProtocolVersion}
	if err := wc.WriteMsg(wire.MsgHello, h.Encode()); err != nil {
		t.Fatal(err)
	}
	if mt, _, err := wc.ReadMsg(); err != nil || mt != wire.MsgOK {
		t.Fatalf("hello: type %d, err %v", mt, err)
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// The idle connection was closed cleanly between requests.
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("idle conn after Shutdown: want EOF, got %v", err)
	}
	if s.Stats().DrainNs.Load() <= 0 {
		t.Fatal("DrainNs not recorded")
	}
	// Shutdown ends in Close; the server refuses further use.
	if _, err := s.Table("nope"); !errors.Is(err, ErrClosed) {
		t.Fatalf("after Shutdown: %v", err)
	}
}

func TestShutdownWaitsForBusyConn(t *testing.T) {
	s := newServer(t, t.TempDir())
	addr := serveTCP(t, s)
	_, wc := dialWire(t, addr)
	h := &wire.Hello{Version: wire.ProtocolVersion}
	if err := wc.WriteMsg(wire.MsgHello, h.Encode()); err != nil {
		t.Fatal(err)
	}
	if mt, _, err := wc.ReadMsg(); err != nil || mt != wire.MsgOK {
		t.Fatalf("hello: type %d, err %v", mt, err)
	}

	// Pin the connection busy, as if a request were mid-dispatch — once
	// the handler, which clears the flag after answering Hello, has.
	st := onlyConnState(t, s)
	for st.busy.Load() {
		time.Sleep(time.Millisecond)
	}
	st.busy.Store(true)

	done := make(chan error, 1)
	go func() { done <- s.Shutdown(context.Background()) }()

	select {
	case err := <-done:
		t.Fatalf("Shutdown returned %v while a conn was busy", err)
	case <-time.After(100 * time.Millisecond):
	}
	if !s.draining.Load() {
		t.Fatal("draining flag not set during Shutdown")
	}

	// Request finishes; the drain loop may now close the idle conn.
	st.busy.Store(false)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown never completed after conn went idle")
	}
}

func TestShutdownDeadlineExpires(t *testing.T) {
	s := newServer(t, t.TempDir())
	addr := serveTCP(t, s)
	_, wc := dialWire(t, addr)
	h := &wire.Hello{Version: wire.ProtocolVersion}
	if err := wc.WriteMsg(wire.MsgHello, h.Encode()); err != nil {
		t.Fatal(err)
	}
	if mt, _, err := wc.ReadMsg(); err != nil || mt != wire.MsgOK {
		t.Fatalf("hello: type %d, err %v", mt, err)
	}
	st := onlyConnState(t, s)
	st.busy.Store(true) // never finishes

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	// The conn stays busy forever; handleConn is parked in ReadMsg, so once
	// the deadline fires Shutdown falls through to Close, which hard-closes
	// it. Unpin busy afterward so nothing lingers.
	defer st.busy.Store(false)
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown past deadline: %v", err)
	}
}

// TestShutdownNeverTruncatesResponses races Shutdown against an in-flight
// request many times: the client must observe either a complete response
// or a clean EOF with no bytes — never a partial frame.
func TestShutdownNeverTruncatesResponses(t *testing.T) {
	for i := 0; i < 30; i++ {
		s := newServer(t, t.TempDir())
		addr := serveTCP(t, s)
		_, wc := dialWire(t, addr)
		if err := wc.WriteMsg(wire.MsgListTables, nil); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Shutdown(context.Background())
		}()
		mt, _, err := wc.ReadMsg()
		switch {
		case err == nil && mt == wire.MsgTableList:
			// Completed before the drain closed the conn.
		case errors.Is(err, io.EOF), errors.Is(err, syscall.ECONNRESET):
			// Closed while idle, before the request was picked up: the
			// request is cleanly unacknowledged, nothing partial. A close
			// with the request still unread in the server's receive buffer
			// surfaces as a reset rather than EOF.
		default:
			t.Fatalf("iteration %d: truncated or garbled response: type %d, err %v", i, mt, err)
		}
		wg.Wait()
	}
}

func TestShutdownConcurrentCallsConverge(t *testing.T) {
	s := newServer(t, t.TempDir())
	serveTCP(t, s)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := s.Shutdown(ctx); err != nil {
				t.Errorf("Shutdown: %v", err)
			}
		}()
	}
	wg.Wait()
}

func TestMaxInFlightSheds(t *testing.T) {
	s, err := New(Options{
		Root:        t.TempDir(),
		MaxInFlight: 1,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	addr := serveTCP(t, s)
	_, wc := dialWire(t, addr)

	// Occupy the only admission slot, as a concurrent request would.
	s.stats.RequestsInFlight.Add(1)
	if err := wc.WriteMsg(wire.MsgListTables, nil); err != nil {
		t.Fatal(err)
	}
	mt, payload, err := wc.ReadMsg()
	if err != nil {
		t.Fatal(err)
	}
	if mt != wire.MsgOverloaded {
		t.Fatalf("over the gate: got type %d, want MsgOverloaded", mt)
	}
	if m, err := wire.DecodeErrorMsg(payload); err != nil || m.Message == "" {
		t.Fatalf("overloaded payload: %v, %v", m, err)
	}
	if got := s.Stats().RequestsShed.Load(); got != 1 {
		t.Fatalf("RequestsShed = %d, want 1", got)
	}

	// The gate frees up; the same connection works again.
	s.stats.RequestsInFlight.Add(-1)
	if err := wc.WriteMsg(wire.MsgListTables, nil); err != nil {
		t.Fatal(err)
	}
	if mt, _, err := wc.ReadMsg(); err != nil || mt != wire.MsgTableList {
		t.Fatalf("after gate freed: type %d, err %v", mt, err)
	}
}

func TestServerStatsOverWire(t *testing.T) {
	s := newServer(t, t.TempDir())
	addr := serveTCP(t, s)
	_, wc := dialWire(t, addr)
	if err := wc.WriteMsg(wire.MsgServerStats, nil); err != nil {
		t.Fatal(err)
	}
	mt, payload, err := wc.ReadMsg()
	if err != nil || mt != wire.MsgServerStatsResult {
		t.Fatalf("server stats: type %d, err %v", mt, err)
	}
	res, err := wire.DecodeStats(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Get("conns_active"); got != 1 {
		t.Errorf("conns_active = %d, want 1", got)
	}
	// The gauge includes the stats request itself.
	if got := res.Get("requests_in_flight"); got < 1 {
		t.Errorf("requests_in_flight = %d, want >= 1", got)
	}
	if got := res.Get("draining"); got != 0 {
		t.Errorf("draining = %d, want 0", got)
	}
}
