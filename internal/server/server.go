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
	"sync/atomic"
	"time"

	"littletable/internal/clock"
	"littletable/internal/core"
	"littletable/internal/metric"
	"littletable/internal/schema"
	"littletable/internal/vfs"
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

// ServerStats count connection-level robustness events. Each field is
// declared once, tag included; see internal/metric.
type ServerStats struct {
	ConnsDroppedDeadline atomic.Int64 `metric:"conns_dropped_deadline" help:"Connections dropped on read/write deadline expiry"`
	ConnsDroppedOversize atomic.Int64 `metric:"conns_dropped_oversize" help:"Connections dropped for oversized request frames"`
	RequestsShed         atomic.Int64 `metric:"requests_shed" help:"Requests refused Overloaded at the max-in-flight admission gate"`
	DrainNs              atomic.Int64 `metric:"drain_ns" help:"Nanoseconds spent draining in-flight requests during Shutdown"`
	RequestsInFlight     atomic.Int64 `metric:"requests_in_flight" help:"Requests past the admission gate right now" kind:"gauge"`
}

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
	stats ServerStats

	mu     sync.Mutex
	tables map[string]*core.Table
	conns  map[net.Conn]*connState
	closed bool

	// draining is set by Shutdown: stop accepting, let in-flight
	// requests finish, refuse new work.
	draining atomic.Bool

	// Migration receive path: chunked tablet images being staged before
	// install, keyed by table + file. Guarded by migMu (not mu: staging
	// appends happen during request handling and must not contend with
	// the connection bookkeeping).
	migMu       sync.Mutex
	installs    map[string][]byte
	stagedBytes int64

	lis     net.Listener
	stop    chan struct{}
	drained chan struct{} // closed when the Drain loop finishes
	wg      sync.WaitGroup
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
		opts:    opts,
		tables:  make(map[string]*core.Table),
		conns:   make(map[net.Conn]*connState),
		stop:    make(chan struct{}),
		drained: make(chan struct{}),
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

// Serve accepts connections on lis until Close.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.lis = lis
	s.mu.Unlock()
	for {
		conn, err := lis.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			select {
			case <-s.stop:
				return nil
			default:
				return err
			}
		}
		s.mu.Lock()
		if s.closed || s.draining.Load() {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		st := &connState{}
		s.conns[conn] = st
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}()
			s.handleConn(conn, st)
		}()
	}
}

// ListenAndServe listens on addr and serves until Close. It returns the
// chosen address on a channel-free API by blocking; use Listen + Serve to
// learn the port first.
func (s *Server) ListenAndServe(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(lis)
}

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
func (s *Server) Drain(ctx context.Context) error {
	start := time.Now()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	alreadyDraining := s.draining.Swap(true)
	lis := s.lis
	s.mu.Unlock()
	if alreadyDraining {
		// A concurrent Drain owns the loop; just wait for it.
		select {
		case <-s.drained:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if lis != nil {
		lis.Close()
	}

	var err error
	ticker := time.NewTicker(2 * time.Millisecond)
	defer ticker.Stop()
drain:
	for {
		s.mu.Lock()
		for conn, st := range s.conns {
			if !st.busy.Load() {
				// Idle between requests: close now. handleConn also exits
				// on its own after finishing a request while draining.
				conn.Close()
			}
		}
		n := len(s.conns)
		s.mu.Unlock()
		if n == 0 {
			break
		}
		select {
		case <-ctx.Done():
			err = ctx.Err()
			break drain
		case <-ticker.C:
		}
	}
	s.stats.DrainNs.Add(time.Since(start).Nanoseconds())
	close(s.drained)
	return err
}

// connState tracks whether a connection is mid-request, so Shutdown can
// distinguish in-flight work (wait for it) from idle connections (close
// them).
type connState struct {
	busy atomic.Bool
}

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
	lis := s.lis
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	if lis != nil {
		lis.Close()
	}
	s.maintWG.Wait()
	s.wg.Wait()
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
func (s *Server) Stats() *ServerStats { return &s.stats }

// Metrics returns the server-level (not per-table) counters and gauges:
// the MsgServerStats payload and the unlabelled part of /metrics. The
// shard router reads them to judge shard health. Asked over the wire, the
// in-flight gauge includes the stats request itself, so it reads >= 1.
func (s *Server) Metrics() metric.List {
	var g serverGauges
	s.mu.Lock()
	g.ConnsActive = int64(len(s.conns))
	s.mu.Unlock()
	if s.draining.Load() {
		g.Draining = 1
	}
	return metric.Read(&s.stats, &g)
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
