package server

import (
	"net"
	"strings"
	"testing"

	"littletable/internal/wire"
)

// TestServerAnswersEveryRequest sends each request type the table routes
// to a server, with an empty payload, and requires anything but the
// dispatch switch's "unknown message type" default: a request added to
// wire.Requests without a handler arm fails here. (Most handlers reject
// the empty payload and drop the connection; that is an answer.)
func TestServerAnswersEveryRequest(t *testing.T) {
	s := newServer(t, t.TempDir())
	addr := serveTCP(t, s)
	for _, req := range wire.Requests {
		_, wc := dialWire(t, addr)
		if err := wc.WriteMsg(req.Type, nil); err != nil {
			t.Fatalf("%s: %v", req.Name, err)
		}
		mt, payload, err := wc.ReadMsg()
		unknown := false
		if err == nil && mt == wire.MsgError {
			if em, derr := wire.Decode[wire.ErrorMsg](payload); derr == nil {
				unknown = strings.Contains(em.Message, "unknown message type")
			}
		}
		if routerOnly := req.Route == wire.RouteRouterOnly; unknown != routerOnly {
			t.Errorf("%s (route %d): server called it unknown = %v, want %v", req.Name, req.Route, unknown, routerOnly)
		}
	}
}

// TestStaleProtocolVersionFailsAtHello: version 2 changed the shape of
// the three stats results, so a version-1 peer must be told so when it
// says Hello, not discover it as ErrCorrupt on its first stats call —
// whether it dialed a shard server or a router.
func TestStaleProtocolVersionFailsAtHello(t *testing.T) {
	endpoints(t, Options{}, func(t *testing.T, addr net.Addr, _ *Server) {
		_, wc := dialWire(t, addr)
		if err := wc.Send(wire.MsgHello, &wire.Hello{Version: wire.ProtocolVersion - 1}); err != nil {
			t.Fatal(err)
		}
		mt, payload, err := wc.ReadMsg()
		if err != nil || mt != wire.MsgError {
			t.Fatalf("stale hello: type %d, err %v, want MsgError", mt, err)
		}
		if em, _ := wire.Decode[wire.ErrorMsg](payload); em == nil || !strings.Contains(em.Message, "unsupported") {
			t.Fatalf("stale hello: %+v", em)
		}
	})
}
