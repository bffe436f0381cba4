package client

import (
	"context"
	"net"
	"testing"
	"time"

	"littletable/internal/wire"
)

// FuzzClientResponse feeds arbitrary server responses to every client
// request path: the server handshakes honestly, then answers each request
// with the fuzz input framed as [type byte][payload]. The client must
// return an error or a result — never panic, never hang past its
// timeouts — whatever bytes come back.
func FuzzClientResponse(f *testing.F) {
	// Seeds: well-formed responses of each kind, plus junk.
	f.Add([]byte{byte(wire.MsgOK)})
	for _, s := range []struct {
		t wire.MsgType
		m wire.Message
	}{
		{wire.MsgError, &wire.ErrorMsg{Message: "boom"}},
		{wire.MsgTableList, &wire.TableList{Names: []string{"a", "b"}}},
		{wire.MsgSchema, &wire.SchemaResp{Schema: eventsSchema(), TTL: 0}},
	} {
		if b, err := wire.Encode(s.m); err == nil {
			f.Add(append([]byte{byte(s.t)}, b...))
		}
	}
	rows := &wire.Rows{SchemaVersion: 1}
	f.Add(append([]byte{byte(wire.MsgRows)}, rows.Encode(eventsSchema())...))
	f.Add([]byte{byte(wire.MsgOverloaded)})
	f.Add([]byte{0xff, 0x00, 0x41, 0x41})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Skip(err)
		}
		defer lis.Close()
		go func() {
			for {
				conn, err := lis.Accept()
				if err != nil {
					return
				}
				go func(conn net.Conn) {
					defer conn.Close()
					wc := wire.NewConn(conn)
					if mt, _, err := wc.ReadMsg(); err != nil || mt != wire.MsgHello {
						return
					}
					if err := wc.WriteMsg(wire.MsgOK, nil); err != nil {
						return
					}
					for {
						if _, _, err := wc.ReadMsg(); err != nil {
							return
						}
						mt := wire.MsgType(0)
						var payload []byte
						if len(data) > 0 {
							mt = wire.MsgType(data[0])
							payload = data[1:]
						}
						if err := wc.WriteMsg(mt, payload); err != nil {
							return
						}
					}
				}(conn)
			}
		}()

		opts := Options{
			PoolSize:       1,
			DialTimeout:    2 * time.Second,
			RequestTimeout: 500 * time.Millisecond,
			MaxRetries:     -1,
			JitterSeed:     1,
		}
		ctx := context.Background()
		c, err := DialContext(ctx, lis.Addr().String(), opts)
		if err != nil {
			return
		}
		defer c.Close()
		c.ListTables()
		c.ServerStats(ctx)
		if tab, err := c.OpenTable("t"); err == nil {
			// The fuzzed bytes decoded as a schema; now the same bytes come
			// back as query, latest-row, and stats responses against it.
			tab.Query(NewQuery()).All()
			tab.LatestRow(nil)
			tab.Stats()
			tab.DeleteRange(NewQuery())
			tab.FlushTable()
		}
	})
}
