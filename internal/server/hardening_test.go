package server

import (
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"littletable/internal/router"
	"littletable/internal/wire"
)

// serveTCP starts s on a loopback listener and returns its address.
func serveTCP(t *testing.T, s *Server) net.Addr {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(lis)
	return lis.Addr()
}

// endpoints runs test against both endpoints of the protocol, each under
// opts' connection limits: the shard server itself (s is that server),
// and a router in front of an unlimited shard server (s is nil: the
// router exports no connection counters, so the test checks only what
// its client sees).
func endpoints(t *testing.T, opts Options, test func(t *testing.T, addr net.Addr, s *Server)) {
	t.Run("server", func(t *testing.T) {
		opts.Root, opts.Logf = t.TempDir(), t.Logf
		s, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		test(t, serveTCP(t, s), s)
	})
	t.Run("router", func(t *testing.T) {
		shard := newServer(t, t.TempDir())
		r, err := router.New(router.Options{
			Shards:          []string{serveTCP(t, shard).String()},
			ReadTimeout:     opts.ReadTimeout,
			WriteTimeout:    opts.WriteTimeout,
			MaxRequestBytes: opts.MaxRequestBytes,
			Logf:            t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go r.Serve(lis)
		test(t, lis.Addr(), nil)
	})
}

// expectHangUp fails unless the peer closes conn within five seconds
// without sending anything.
func expectHangUp(t *testing.T, conn net.Conn, why string) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("expected the endpoint to %s, got %v", why, err)
	}
}

func TestReadDeadlineDropsIdleConn(t *testing.T) {
	endpoints(t, Options{ReadTimeout: 50 * time.Millisecond}, func(t *testing.T, addr net.Addr, s *Server) {
		conn, err := net.Dial("tcp", addr.String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		// Say nothing; the endpoint should hang up once the read deadline
		// expires.
		expectHangUp(t, conn, "close the idle connection")
		if s == nil {
			return
		}
		if got := s.Stats().ConnsDroppedDeadline.Load(); got != 1 {
			t.Fatalf("ConnsDroppedDeadline = %d, want 1", got)
		}
	})
}

func TestOversizedFrameDropsConn(t *testing.T) {
	endpoints(t, Options{MaxRequestBytes: 1024}, func(t *testing.T, addr net.Addr, s *Server) {
		conn, err := net.Dial("tcp", addr.String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		wc := wire.NewConn(conn)
		// A frame over the endpoint's limit but under the protocol maximum:
		// legal on the wire, rejected by this endpoint's configuration.
		if err := wc.WriteMsg(wire.MsgHello, make([]byte, 4096)); err != nil {
			t.Fatal(err)
		}
		expectHangUp(t, conn, "drop the oversized frame")
		if s == nil {
			return
		}
		if got := s.Stats().ConnsDroppedOversize.Load(); got != 1 {
			t.Fatalf("ConnsDroppedOversize = %d, want 1", got)
		}

		// The drop shows up on the metrics endpoint, without a table label.
		hs := httptest.NewServer(s.MetricsHandler())
		defer hs.Close()
		resp, err := http.Get(hs.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		text := string(body)
		for _, want := range []string{
			"littletable_conns_dropped_oversize_total 1",
			"littletable_conns_dropped_deadline_total 0",
		} {
			if !strings.Contains(text, want) {
				t.Errorf("metrics missing %q in:\n%s", want, text)
			}
		}
	})
}

func TestNormalConnUnaffectedByLimits(t *testing.T) {
	limits := Options{
		ReadTimeout:     2 * time.Second,
		WriteTimeout:    2 * time.Second,
		MaxRequestBytes: 1 << 20,
	}
	endpoints(t, limits, func(t *testing.T, addr net.Addr, s *Server) {
		conn, err := net.Dial("tcp", addr.String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		wc := wire.NewConn(conn)
		if err := wc.Send(wire.MsgHello, &wire.Hello{Version: wire.ProtocolVersion}); err != nil {
			t.Fatal(err)
		}
		mt, _, err := wc.ReadMsg()
		if err != nil || mt != wire.MsgOK {
			t.Fatalf("hello under limits: type %d, err %v", mt, err)
		}
		if s == nil {
			return
		}
		if d := s.Stats().ConnsDroppedDeadline.Load() + s.Stats().ConnsDroppedOversize.Load(); d != 0 {
			t.Fatalf("spurious drops: %d", d)
		}
	})
}
