// Package server implements the LittleTable server process (§3.1): an
// independent daemon owning a directory of tables, serving the wire
// protocol over TCP, and running each table's background maintenance
// (flushing, merging, TTL expiry).
package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"time"

	"littletable/internal/clock"
	"littletable/internal/core"
	"littletable/internal/metric"
	"littletable/internal/schema"
	"littletable/internal/vfs"
	"littletable/internal/wire"
)

// Options configure a Server.
type Options struct {
	// Root is the data directory; one subdirectory per table.
	Root string

	// Core options are applied to every table.
	Core core.Options

	// MaintenanceInterval is how often the background loop flushes aged
	// tablets, merges, and expires TTLs. Default 1s.
	MaintenanceInterval time.Duration

	// QueryRowLimit caps rows per query response; the client re-submits on
	// the more-available flag (§3.5). Default core.DefaultQueryRowLimit.
	QueryRowLimit int

	// ReadTimeout bounds how long the server waits for the next request on
	// an idle connection; a stalled or dead peer is dropped when it expires.
	// 0 disables the deadline (clients keep connections persistent to detect
	// server crashes, §3.1, so the default is permissive).
	ReadTimeout time.Duration

	// WriteTimeout bounds each response write; a peer that stops reading
	// cannot pin a handler goroutine forever. 0 disables.
	WriteTimeout time.Duration

	// MaxRequestBytes caps a single request frame, bounding per-connection
	// memory against oversized or malicious messages. 0 means wire.MaxFrame.
	MaxRequestBytes int

	// MaxInFlight caps concurrently executing requests across all
	// connections. Beyond the cap the server sheds load: the request is
	// refused with a wire-level Overloaded reply (NOT processed), so
	// clients back off and retry instead of timing out blind. 0 disables
	// the gate.
	MaxInFlight int

	// BaseContext, when set, parents every query context; cancelling it
	// stops in-flight block loads and prefetch pipelines. The daemon wires
	// its signal context here so a dying process reclaims readers promptly.
	// Nil means a server-owned root cancelled on Close/Shutdown.
	BaseContext context.Context

	// Logf sinks server logs; default log.Printf.
	Logf func(format string, args ...interface{})
}

// ServerStats count connection-level robustness events; the shared
// connection layer, wire.Front, declares and counts them.
type ServerStats = wire.FrontStats

// serverGauges are the server-level metrics computed when asked for.
type serverGauges struct {
	ConnsActive int64 `metric:"conns_active" help:"Open client connections" kind:"gauge"`
	Draining    int64 `metric:"draining" help:"1 while the server is draining for graceful shutdown" kind:"gauge"`
}

var tableNameRE = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]{0,127}$`)

// Errors returned by table management.
var (
	ErrNoSuchTable  = errors.New("server: no such table")
	ErrBadTableName = errors.New("server: invalid table name")
	ErrClosed       = errors.New("server: closed")
)

// Server owns a directory of LittleTable tables.
type Server struct {
	opts  Options
	front *wire.Front

	mu     sync.Mutex
	tables map[string]*core.Table
	closed bool

	// Migration receive path: chunked tablet images being staged before
	// install, keyed by table + file. Guarded by migMu (not mu: staging
	// appends happen during request handling and must not contend with
	// the connection bookkeeping).
	migMu       sync.Mutex
	installs    map[string][]byte
	stagedBytes int64

	stop    chan struct{}
	maintWG sync.WaitGroup

	// baseCtx parents every query's context: closing the server cancels
	// it, which stops in-flight block loads and prefetch pipelines.
	baseCtx    context.Context
	baseCancel context.CancelFunc
}

// New opens (or creates) the data directory and all tables within it, and
// starts the maintenance loop.
func New(opts Options) (*Server, error) {
	if opts.MaintenanceInterval == 0 {
		opts.MaintenanceInterval = time.Second
	}
	if opts.QueryRowLimit == 0 {
		opts.QueryRowLimit = core.DefaultQueryRowLimit
	}
	if opts.Logf == nil {
		opts.Logf = log.Printf
	}
	if opts.Core.Clock == nil {
		opts.Core.Clock = clock.Real{}
	}
	if err := rootFS(opts).MkdirAll(opts.Root); err != nil {
		return nil, err
	}
	s := &Server{
		opts:   opts,
		tables: make(map[string]*core.Table),
		stop:   make(chan struct{}),
	}
	s.front = &wire.Front{
		Name:            "server",
		Dispatch:        s.dispatch,
		ReadTimeout:     opts.ReadTimeout,
		WriteTimeout:    opts.WriteTimeout,
		MaxRequestBytes: opts.MaxRequestBytes,
		MaxInFlight:     opts.MaxInFlight,
		Logf:            opts.Logf,
	}
	base := opts.BaseContext
	if base == nil {
		//ltlint:ignore ctxprop the server root: embedders without a BaseContext get a root cancelled on Close/Shutdown
		base = context.Background()
	}
	s.baseCtx, s.baseCancel = context.WithCancel(base)
	ents, err := rootFS(opts).ReadDir(opts.Root)
	if err != nil {
		return nil, err
	}
	for _, e := range ents {
		if !e.IsDir() || !tableNameRE.MatchString(e.Name()) {
			continue
		}
		t, err := core.OpenTable(opts.Root, e.Name(), opts.Core)
		if err != nil {
			s.closeTablesLocked()
			return nil, fmt.Errorf("server: open table %s: %w", e.Name(), err)
		}
		s.tables[e.Name()] = t
	}
	s.maintWG.Add(1)
	go s.maintainLoop()
	return s, nil
}

// maintainLoop periodically runs each table's Tick: age-based flushes,
// merges, and TTL expiry.
func (s *Server) maintainLoop() {
	defer s.maintWG.Done()
	tick := time.NewTicker(s.opts.MaintenanceInterval)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
			for _, t := range s.snapshotTables() {
				if err := t.Tick(); err != nil && !errors.Is(err, core.ErrTableClosed) {
					s.opts.Logf("littletable: maintenance on %s: %v", t.Name(), err)
				}
			}
			s.runRollups()
		}
	}
}

func (s *Server) snapshotTables() []*core.Table {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*core.Table, 0, len(s.tables))
	for _, t := range s.tables {
		out = append(out, t)
	}
	return out
}

// Table returns the named open table for in-process use (benchmarks, the
// application daemons when co-located, and tests).
func (s *Server) Table(name string) (*core.Table, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	t, ok := s.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, name)
	}
	return t, nil
}

// Now returns the server's engine time in microseconds.
func (s *Server) Now() int64 { return s.opts.Core.Clock.Now() }

// TableNames lists tables in sorted order.
func (s *Server) TableNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.tables))
	for n := range s.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CreateTable creates and opens a new table.
func (s *Server) CreateTable(name string, sc *schema.Schema, ttl int64) (*core.Table, error) {
	if !tableNameRE.MatchString(name) {
		return nil, fmt.Errorf("%w: %q", ErrBadTableName, name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if _, ok := s.tables[name]; ok {
		return nil, fmt.Errorf("server: table %q already exists", name)
	}
	t, err := core.CreateTable(s.opts.Root, name, sc, ttl, s.opts.Core)
	if err != nil {
		return nil, err
	}
	s.tables[name] = t
	return t, nil
}

// DropTable closes the table and deletes its directory. Dashboard drops
// and recreates tables freely during feature development (§3.5).
func (s *Server) DropTable(name string) error {
	s.mu.Lock()
	t, ok := s.tables[name]
	if ok {
		delete(s.tables, name)
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchTable, name)
	}
	s.dropStaged(name)
	if err := t.Close(); err != nil {
		return err
	}
	return rootFS(s.opts).RemoveAll(filepath.Join(s.opts.Root, name))
}

// rootFS is the filesystem for root-directory operations: the tables' FS
// when injected, the real one otherwise.
func rootFS(opts Options) vfs.FS {
	if opts.Core.FS != nil {
		return opts.Core.FS
	}
	return vfs.OsFS{}
}

// Serve accepts connections on lis until Close or Drain.
func (s *Server) Serve(lis net.Listener) error { return s.front.Serve(lis) }

// ListenAndServe listens on addr and serves until Close or Drain; use
// net.Listen + Serve to learn the port first.
func (s *Server) ListenAndServe(addr string) error { return s.front.ListenAndServe(addr) }

// Shutdown drains the server gracefully: stop accepting connections, let
// requests already past the admission gate finish and their responses
// reach the wire, then close everything Close closes. Idle connections
// (blocked waiting for their next request) are closed immediately —
// their clients see a clean EOF between requests, never a truncated
// response. If ctx expires first, remaining connections are hard-closed
// and ctx's error is returned. The §3.1 deployment leans on this: a
// shard being recycled must not turn acknowledged work into lies.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.Drain(ctx)
	if cerr := s.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// Drain is Shutdown without the final Close: it stops accepting and waits
// for in-flight requests, but leaves the tables open. It exists for
// callers that must act between the last request and table close —
// littletabled's -flush-on-exit flushes acked-but-unflushed rows there.
// Most callers want Shutdown.
func (s *Server) Drain(ctx context.Context) error { return s.front.Drain(ctx) }

// Close stops serving, stops maintenance, flushes nothing (the durability
// contract), and closes all tables.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.stop)
	s.baseCancel()
	s.mu.Unlock()
	s.front.Close()
	s.maintWG.Wait()
	s.mu.Lock()
	s.closeTablesLocked()
	s.mu.Unlock()
	return nil
}

func (s *Server) closeTablesLocked() {
	for _, t := range s.tables {
		t.Close()
	}
	s.tables = map[string]*core.Table{}
}

// Stats exposes the server's connection-level counters.
func (s *Server) Stats() *ServerStats { return &s.front.Stats }

// Metrics returns the server-level (not per-table) counters and gauges:
// the MsgServerStats payload and the unlabelled part of /metrics. The
// shard router reads them to judge shard health. Asked over the wire, the
// in-flight gauge includes the stats request itself, so it reads >= 1.
func (s *Server) Metrics() metric.List {
	g := serverGauges{ConnsActive: int64(s.front.Conns())}
	if s.front.Draining() {
		g.Draining = 1
	}
	return metric.Read(&s.front.Stats, &g)
}

// FlushAllTables flushes every table's memtables; used at orderly shutdown
// when the operator wants zero loss despite the weak durability contract.
func (s *Server) FlushAllTables() error {
	for _, t := range s.snapshotTables() {
		if err := t.FlushAll(); err != nil {
			return err
		}
	}
	return nil
}
