package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"time"

	"littletable/internal/client"
	"littletable/internal/clock"
	"littletable/internal/core"
	"littletable/internal/router"
	"littletable/internal/schema"
	"littletable/internal/server"
	"littletable/internal/vfs"
)

// shardAddrs are the fixed loopback addresses the shards listen on. The
// router's ring hashes shard addresses, so an OS-chosen port would place
// tables differently on every run; any 127/8 address is local on Linux,
// and these are unlikely to be taken. fallbackAddrs are tried if they are.
var (
	shardAddrs    = []string{"127.77.13.1:7713", "127.77.13.2:7713"}
	fallbackAddrs = []string{"127.0.0.1:27713", "127.0.0.1:27714"}
)

// envOptions are the knobs a workload sets; everything else is the
// daemon's default. Background work is made deterministic (rule 3 of the
// README): no maintenance ticker, no flush or merge workers, a fake
// clock the harness advances, SyncWrites off like the daemon's default.
type envOptions struct {
	shards     int
	router     bool
	flushSize  int
	blockCache int64
}

// env is one running system under test: shard servers (and optionally a
// router) serving loopback TCP from one temp directory, plus the single
// client connection that drives it.
type env struct {
	dir string
	clk *clock.Fake
	fs  *meterFS

	srvs   []*server.Server
	addrs  []string
	rt     *router.Router
	served chan error // one result per Serve goroutine
	nServe int

	cl *client.Client
}

func quiet(string, ...interface{}) {}

func (o envOptions) core(clk *clock.Fake, fsys vfs.FS) core.Options {
	return core.Options{
		Clock:           clk,
		FlushSize:       o.flushSize,
		BlockCacheBytes: o.blockCache,
		FS:              fsys,
		Logf:            quiet,
	}
}

func listenShard(i int) (net.Listener, error) {
	lis, err := net.Listen("tcp", shardAddrs[i])
	if err != nil {
		lis, err = net.Listen("tcp", fallbackAddrs[i])
	}
	if err != nil {
		lis, err = net.Listen("tcp", "127.0.0.1:0")
	}
	return lis, err
}

// newEnv starts the system in dir (created; removed by close) with the
// fake clock at startTs.
func newEnv(ctx context.Context, dir string, o envOptions, startTs int64, tr *tracer) (e *env, err error) {
	e = &env{
		dir:    dir,
		clk:    clock.NewFake(startTs),
		fs:     newMeterFS(vfs.OsFS{}, tr),
		served: make(chan error, o.shards+1), // one slot per Serve goroutine
	}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	if err := e.fs.MkdirAll(dir); err != nil {
		return e, err
	}
	for i := 0; i < o.shards; i++ {
		srv, err := server.New(server.Options{
			Root:                filepath.Join(dir, fmt.Sprintf("shard%d", i)),
			Core:                o.core(e.clk, e.fs),
			MaintenanceInterval: time.Hour,
			Logf:                quiet,
		})
		if err != nil {
			return e, err
		}
		e.srvs = append(e.srvs, srv)
		lis, err := listenShard(i)
		if err != nil {
			return e, err
		}
		e.addrs = append(e.addrs, lis.Addr().String())
		e.nServe++
		go func() { e.served <- srv.Serve(lis) }()
	}
	front := e.addrs[0]
	if o.router {
		e.rt, err = router.New(router.Options{
			Shards:        e.addrs,
			ProbeInterval: time.Hour, // one probe at start, none during measurement
			Client:        client.Options{PoolSize: 1},
		})
		if err != nil {
			return e, err
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return e, err
		}
		front = lis.Addr().String()
		e.nServe++
		go func() { e.served <- e.rt.Serve(lis) }()
	}
	e.cl, err = client.DialContext(ctx, front, client.Options{PoolSize: 1})
	return e, err
}

// createTable creates name through the front door (so the router's ring
// places it) and returns the client handle and the owning shard's table.
func (e *env) createTable(name string, sc *schema.Schema) (*client.Table, *core.Table, error) {
	if err := e.cl.CreateTable(name, sc, 0); err != nil {
		return nil, nil, err
	}
	ct, err := e.cl.OpenTable(name)
	if err != nil {
		return nil, nil, err
	}
	for _, srv := range e.srvs {
		if t, err := srv.Table(name); err == nil {
			return ct, t, nil
		}
	}
	return nil, nil, fmt.Errorf("table %s not found on any shard", name)
}

// shardOf returns the index of the shard holding the table.
func (e *env) shardOf(name string) int {
	for i, srv := range e.srvs {
		if _, err := srv.Table(name); err == nil {
			return i
		}
	}
	return -1
}

// diskBytes sums the sizes of all files under the env's directory.
func (e *env) diskBytes() (int64, error) {
	var walk func(dir string) (int64, error)
	walk = func(dir string) (int64, error) {
		ents, err := e.fs.ReadDir(dir)
		if err != nil {
			return 0, err
		}
		var n int64
		for _, ent := range ents {
			p := filepath.Join(dir, ent.Name())
			if ent.IsDir() {
				sub, err := walk(p)
				if err != nil {
					return 0, err
				}
				n += sub
				continue
			}
			st, err := e.fs.Stat(p)
			if err != nil {
				return 0, err
			}
			n += st.Size()
		}
		return n, nil
	}
	return walk(e.dir)
}

// close stops every goroutine the env started, waits for them, and
// removes the data directory.
func (e *env) close() error {
	var errs []error
	if e.cl != nil {
		errs = append(errs, e.cl.Close())
	}
	if e.rt != nil {
		errs = append(errs, e.rt.Close())
	}
	for _, srv := range e.srvs {
		errs = append(errs, srv.Close())
	}
	for i := 0; i < e.nServe; i++ {
		errs = append(errs, <-e.served)
	}
	errs = append(errs, e.fs.RemoveAll(e.dir))
	return errors.Join(errs...)
}
