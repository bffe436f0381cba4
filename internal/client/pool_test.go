package client

import (
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"littletable/internal/netfault"
	"littletable/internal/server"
	"littletable/internal/wire"
)

func stableGoroutineCount() int {
	runtime.GC()
	time.Sleep(10 * time.Millisecond)
	return runtime.NumGoroutine()
}

func checkGoroutineCount(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var n int
	for {
		n = runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines leaked: %d live, baseline %d\n%s", n, baseline, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// fastOpts keeps retry backoff short and deterministic for tests.
func fastOpts() Options {
	return Options{
		DialTimeout:    2 * time.Second,
		RetryBaseDelay: time.Millisecond,
		RetryMaxDelay:  10 * time.Millisecond,
		JitterSeed:     1,
	}
}

func dialOpts(t *testing.T, addr string, opts Options) *Client {
	t.Helper()
	c, err := DialContext(context.Background(), addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestPoolReusesConnections(t *testing.T) {
	_, addr := startServer(t, server.Options{})
	c := dialOpts(t, addr, fastOpts())
	for i := 0; i < 20; i++ {
		if _, err := c.ListTables(); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Stats().Dials.Load(); got != 1 {
		t.Errorf("sequential requests dialed %d conns, want 1", got)
	}
	if got := c.Stats().Reconnects.Load(); got != 0 {
		t.Errorf("Reconnects = %d, want 0", got)
	}
}

func TestPoolRecoversAfterServerRestart(t *testing.T) {
	root := t.TempDir()
	newSrv := func() (*server.Server, net.Listener) {
		s, err := server.New(server.Options{Root: root, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go s.Serve(lis)
		return s, lis
	}
	s1, lis1 := newSrv()
	p, err := netfault.New(lis1.Addr().String(), netfault.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	c := dialOpts(t, p.Addr(), fastOpts())
	if err := c.CreateTable("events", eventsSchema(), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ListTables(); err != nil {
		t.Fatal(err)
	}

	// Hard server restart: pooled conns go dead while idle.
	s1.Close()
	s2, lis2 := newSrv()
	defer s2.Close()
	p.SetTarget(lis2.Addr().String())

	// The next request must ride a health-checked reconnect, not fail.
	names, err := c.ListTables()
	if err != nil {
		t.Fatalf("after restart: %v", err)
	}
	if len(names) != 1 || names[0] != "events" {
		t.Fatalf("after restart: %v", names)
	}
	if got := c.Stats().Reconnects.Load(); got == 0 {
		t.Error("restart recovery recorded no reconnects")
	}
}

func TestOverloadedRetriesThenSurfacesTypedError(t *testing.T) {
	s2, err := server.New(server.Options{Root: t.TempDir(), MaxInFlight: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s2.Serve(lis)

	opts := fastOpts()
	opts.MaxRetries = 2
	// Dial first (the handshake passes the gate too), then jam the gate
	// shut from the inside, as a storm of slow requests would.
	c, err := DialContext(context.Background(), lis.Addr().String(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s2.Stats().RequestsInFlight.Add(1 << 20)
	_, lerr := c.ListTables()
	if !errors.Is(lerr, ErrOverloaded) {
		t.Fatalf("jammed gate: %v", lerr)
	}
	if got := c.Stats().Overloaded.Load(); got < 3 {
		t.Errorf("Overloaded = %d, want >= 3 (initial + 2 retries)", got)
	}
	if got := c.Stats().Retries.Load(); got < 2 {
		t.Errorf("Retries = %d, want >= 2", got)
	}

	// Gate opens: the same client works without redialing the world.
	s2.Stats().RequestsInFlight.Add(-(1 << 20))
	if _, err := c.ListTables(); err != nil {
		t.Fatalf("after gate opened: %v", err)
	}
}

func TestDialTimeoutOnBlackhole(t *testing.T) {
	// A proxy that accepts TCP but forwards nothing: connect succeeds, the
	// handshake stalls. Without a dial timeout this would hang forever.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			io.Copy(io.Discard, conn) // swallow the handshake, never reply
		}
	}()

	opts := fastOpts()
	opts.DialTimeout = 100 * time.Millisecond
	opts.MaxRetries = -1
	start := time.Now()
	_, err = DialContext(context.Background(), lis.Addr().String(), opts)
	if !errors.Is(err, ErrDisconnected) {
		t.Fatalf("blackholed dial: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("dial took %v despite 100ms timeout", elapsed)
	}
}

func TestMidRequestCancelFailsFastAndDoesNotLeak(t *testing.T) {
	// A server that handshakes, then swallows every request silently.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
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
				wc.WriteMsg(wire.MsgOK, nil)
				io.Copy(io.Discard, conn) // requests go nowhere
			}(conn)
		}
	}()

	// Baseline after the fake server is up: its accept loop lives until
	// the deferred lis.Close, so it must not count as a client leak.
	baseline := stableGoroutineCount()
	opts := fastOpts()
	opts.MaxRetries = -1
	c, err := DialContext(context.Background(), lis.Addr().String(), opts)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := c.ListTablesCtx(ctx)
		errCh <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the request park in ReadMsg
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled request: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel did not interrupt the blocked request")
	}
	c.Close()
	checkGoroutineCount(t, baseline)
}

func TestRequestTimeoutThreadsToSocket(t *testing.T) {
	// Same swallowing server; the default RequestTimeout must bound the
	// hang without any caller-supplied context.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
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
				wc.WriteMsg(wire.MsgOK, nil)
				io.Copy(io.Discard, conn)
			}(conn)
		}
	}()
	opts := fastOpts()
	opts.MaxRetries = -1
	opts.RequestTimeout = 100 * time.Millisecond
	c, err := DialContext(context.Background(), lis.Addr().String(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	_, lerr := c.ListTables()
	if lerr == nil {
		t.Fatal("swallowed request reported success")
	}
	if !errors.Is(lerr, context.DeadlineExceeded) {
		t.Fatalf("timed-out request: %v", lerr)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("request took %v despite 100ms RequestTimeout", elapsed)
	}
}

func TestConnChurnDoesNotLeak(t *testing.T) {
	baseline := stableGoroutineCount()
	s, addr := startServer(t, server.Options{})
	p, err := netfault.New(addr, netfault.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	opts := fastOpts()
	c, err := DialContext(context.Background(), p.Addr(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if _, err := c.ListTables(); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		// Sever every proxied conn; the pool must shrug and redial.
		p.CutAll()
	}
	if got := c.Stats().Reconnects.Load(); got < 10 {
		t.Errorf("churn produced only %d reconnects", got)
	}
	c.Close()
	p.Close()
	s.Close()
	checkGoroutineCount(t, baseline)
}

func TestCloseUnderLoadDoesNotLeak(t *testing.T) {
	baseline := stableGoroutineCount()
	s, addr := startServer(t, server.Options{})
	opts := fastOpts()
	opts.PoolSize = 3
	c, err := DialContext(context.Background(), addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.ListTables(); err != nil {
					// Closing mid-request surfaces typed errors only.
					if !errors.Is(err, ErrClientClosed) && !errors.Is(err, ErrDisconnected) {
						t.Errorf("under close: %v", err)
					}
					return
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	if err := c.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	close(stop)
	wg.Wait()
	// Use after close fails fast with the typed error.
	if _, err := c.ListTables(); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("use after close: %v", err)
	}
	s.Close()
	checkGoroutineCount(t, baseline)
}

func TestFlushReportsUnsentCount(t *testing.T) {
	s, addr := startServer(t, server.Options{})
	c := dialOpts(t, addr, fastOpts())
	if err := c.CreateTable("events", eventsSchema(), 0); err != nil {
		t.Fatal(err)
	}
	tab, err := c.OpenTable("events")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 7; i++ {
		if err := tab.Insert(eventRow(1, i, 1000+i, i, "buffered")); err != nil {
			t.Fatal(err)
		}
	}
	s.Close() // rows are now unsendable

	err = tab.Flush()
	var ue *UnsentError
	if !errors.As(err, &ue) {
		t.Fatalf("flush against dead server: %v", err)
	}
	if ue.Rows != 7 {
		t.Errorf("UnsentError.Rows = %d, want 7", ue.Rows)
	}
	if !errors.Is(err, ErrDisconnected) {
		t.Errorf("UnsentError should wrap the transport cause, got %v", ue.Err)
	}
	if tab.Buffered() != 0 {
		t.Errorf("failed flush left %d rows buffered; the app re-inserts per §4.1", tab.Buffered())
	}
}

func TestCloseReportsBufferedRows(t *testing.T) {
	s, addr := startServer(t, server.Options{})
	c := dialOpts(t, addr, fastOpts())
	if err := c.CreateTable("events", eventsSchema(), 0); err != nil {
		t.Fatal(err)
	}
	tab, err := c.OpenTable("events")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 5; i++ {
		if err := tab.Insert(eventRow(2, i, 2000+i, i, "doomed")); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	err = c.Close()
	var ue *UnsentError
	if !errors.As(err, &ue) {
		t.Fatalf("Close with undeliverable buffer: %v", err)
	}
	if ue.Rows != 5 {
		t.Errorf("UnsentError.Rows = %d, want 5", ue.Rows)
	}
}

func TestCloseFlushesBufferedRows(t *testing.T) {
	_, addr := startServer(t, server.Options{})
	c := dialOpts(t, addr, fastOpts())
	if err := c.CreateTable("events", eventsSchema(), 0); err != nil {
		t.Fatal(err)
	}
	tab, err := c.OpenTable("events")
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(eventRow(3, 1, 3000, 1, "delivered on close")); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close with healthy server: %v", err)
	}
	// A second client confirms the row arrived.
	c2 := dialOpts(t, addr, fastOpts())
	tab2, err := c2.OpenTable("events")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := tab2.Query(NewQuery()).All()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("row buffered at Close was lost: %d rows", len(rows))
	}
}
