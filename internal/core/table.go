package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"

	"littletable/internal/blockcache"
	"littletable/internal/ltval"
	"littletable/internal/memtable"
	"littletable/internal/period"
	"littletable/internal/schema"
	"littletable/internal/tablet"
	"littletable/internal/vfs"
)

// Errors returned by table operations.
var (
	ErrDuplicateKey = errors.New("core: duplicate primary key")
	ErrTableClosed  = errors.New("core: table closed")
	ErrBadQuery     = errors.New("core: invalid query")

	// ErrRowsLost reports that sealed rows were dropped because the
	// descriptor commit failed after their tablet files were written. The
	// loss is permanent (the rows are gone from memory and were never
	// durable); callers receive it so the loss is observed, not merely
	// logged. On a background flush it is latched and returned by the next
	// Insert, Tick, or FlushAll — that caller's own operation succeeded.
	ErrRowsLost = errors.New("core: descriptor commit failed, rows lost")
)

// fillingTablet is an in-memory tablet accepting inserts for one time
// period (§3.4.3: LittleTable fills several in-memory tablets at once,
// binned by the same periods it uses to limit merging).
type fillingTablet struct {
	mt  *memtable.Memtable
	per period.Period
	// prereqs are tablets that must be flushed before this one (the flush
	// dependency graph of §3.4.3; edge u→t is stored as t.prereqs[u]).
	prereqs map[*fillingTablet]bool
	frozen  bool
}

// groupState tracks a sealed flush group through the write pipeline.
type groupState int

const (
	// gsQueued: sealed, waiting for a flusher to claim it.
	gsQueued groupState = iota
	// gsWriting: a flusher is writing its tablet files.
	gsWriting
	// gsWritten: files are on disk, awaiting an in-order descriptor commit.
	gsWritten
)

// flushGroup is a set of frozen tablets that must reach the descriptor in a
// single atomic update (a dependency closure). Groups are sealed in
// insertion order and commit in that same order — files may be written
// concurrently by several flush workers, but the descriptor only ever
// names a prefix of the seal sequence, which is what preserves the §3.1
// prefix-durability guarantee under concurrent flushing.
type flushGroup struct {
	tablets []*fillingTablet
	bytes   int64 // encoded memtable bytes at seal time (backpressure accounting)

	// Pipeline state, guarded by Table.mu.
	state groupState
	seqs  []uint64      // tablet sequence numbers, reserved at claim time
	disks []*diskTablet // written but uncommitted output
}

// diskTablet is an open on-disk tablet plus lifecycle state. The base
// reference is held by the table; queries take additional references so
// merges and TTL expiry can drop tablets without invalidating open cursors.
type diskTablet struct {
	rec       tabletRecord
	tab       *tablet.Tablet
	path      string
	refs      int  // guarded by Table.mu
	dropped   bool // no longer in the descriptor
	busy      bool // being merged; excluded from further maintenance
	addedAt   int64
	wroteGran period.Granularity // granularity at write time, for merge delay
}

// Table is one LittleTable table: a union of in-memory and on-disk tablets
// (§3.2). All methods are safe for concurrent use. Inserts to a table are
// serialized with respect to each other but not with queries, mirroring the
// paper's lock-table design (§3.4.4).
type Table struct {
	name string
	dir  string
	opts Options

	// insertMu serializes batch application and schema changes; queries do
	// not take it. Inserters enqueue onto insertQ first, so whichever
	// caller holds insertMu applies every queued batch in one go (group
	// commit): the lock is taken once per group of batches, not once per
	// row.
	insertMu sync.Mutex

	// iqMu guards insertQ, the group-commit queue of waiting batches.
	iqMu    sync.Mutex
	insertQ []*insertReq

	// maintMu coordinates structural maintenance. Merges take the read
	// side — merges on disjoint periods share no inputs (§3.4.2 forbids
	// cross-period merges), so they may run in parallel, serialized only
	// by the per-period merging set and busy flags under mu. DeleteWhere
	// and tiering take the write side: they rewrite or relocate arbitrary
	// tablets and must see no merge in flight. Flushes never take it: the
	// group state machine under mu orders their commits. Lock order:
	// maintMu before mu.
	maintMu sync.RWMutex

	// descMu serializes descriptor file writes. Foreground paths write
	// synchronously under mu (writeDescriptorLocked, lock order mu →
	// descMu); background maintenance commits mutate state and bump
	// descGen under mu, then persist OUTSIDE mu (persistDescriptor), so
	// inserts never wait out a descriptor's disk latency behind a merge.
	// The generation pair keeps the on-disk descriptor monotone: a
	// snapshot is only written if no newer one already landed.
	descMu      sync.Mutex
	descGen     uint64 // guarded by mu: state changes needing persistence
	descWritten uint64 // guarded by descMu: last generation on disk

	// mu guards the fields below. It is held only for short, in-memory
	// critical sections plus foreground descriptor writes.
	mu          sync.Mutex
	flushCond   *sync.Cond
	sc          *schema.Schema
	ttl         int64
	rollups     []RollupRule
	nextSeq     uint64
	filling     map[period.Period]*fillingTablet
	lastInsert  *fillingTablet
	pending     []*flushGroup
	sealedBytes int64         // sum of pending groups' bytes not yet committed
	disk        []*diskTablet // sorted by (MinTs, Seq)
	maxTs       int64
	hasRows     bool
	closed      bool

	// Worker pools: each doorbell is nil when its pool is empty (serial
	// mode, where Tick runs the pass inline). stop is closed by Close; it
	// also unblocks maintenance I/O parked in the token bucket.
	flushKick chan struct{} // buffered(1) doorbell: sealed work exists
	maintKick chan struct{} // buffered(1) doorbell: maintenance work exists
	stop      chan struct{}
	workers   sync.WaitGroup

	// Merge state, used in both modes. merging holds periods with a merge
	// in flight; mergeWaitSince and expireWaitSince record when work first
	// became claimable, for priority aging and the *WaitNs counters. All
	// guarded by mu.
	maintCond       *sync.Cond // broadcast on any maintenance state change
	merging         map[period.Period]bool
	mergeWaitSince  map[period.Period]int64 // period -> wall ns first claimable
	expiring        bool
	expireWaitSince int64
	ioBudget        *ioBudget // nil when MaintenanceIOBytesPerSec == 0

	// Fault-recovery state (guarded by mu): consecutive flush and merge
	// failures and the engine time before which scheduled callers do not
	// retry (retryBackoff, so a failing disk is not hammered).
	flushFails   int
	flushRetryAt int64
	mergeFails   int
	mergeRetryAt int64

	// Export state (guarded by mu): the pinned sealed-tablet snapshot a
	// migration is copying out, keyed by file name, and the count of
	// outstanding maintenance holds. While maintHold > 0 no merge is
	// claimed and no TTL expiry runs, so the disk tablet set only grows
	// (flushes are unaffected — they only add tablets); that monotonicity
	// is what lets a migration's cutover pass copy just the delta.
	exports   map[string]*diskTablet
	maintHold int

	// asyncErr latches a row-loss error (ErrRowsLost) from a background
	// flush so the next foreground caller returns it instead of the loss
	// surviving only as a log line. Guarded by mu; cleared when taken.
	asyncErr error

	stats Stats

	// blockCache, when enabled, is shared by every tablet this table
	// opens; handles make keys unique per open instance.
	blockCache *blockcache.Cache
	nextHandle atomic.Uint64
}

// CreateTable makes a new table directory under root and returns the open
// table. ttl of 0 means rows never expire.
func CreateTable(root, name string, sc *schema.Schema, ttl int64, opts Options) (*Table, error) {
	o := opts.withDefaults()
	dir := filepath.Join(root, name)
	if err := o.FS.MkdirAll(dir); err != nil {
		return nil, err
	}
	if _, err := o.FS.Stat(filepath.Join(dir, descriptorFile)); err == nil {
		return nil, fmt.Errorf("core: table %q already exists", name)
	}
	d := &descriptor{Name: name, Schema: sc, TTL: ttl, NextSeq: 1}
	if err := writeDescriptor(o.FS, dir, d, o.SyncWrites); err != nil {
		return nil, err
	}
	return openTable(dir, d, o)
}

// OpenTable opens an existing table directory, recovering from any crash:
// tablet files not named by the descriptor are deleted (their rows were
// never durable), preserving the prefix-of-insertion-order guarantee.
// Tablets that fail to open — truncated, corrupt, or unreadable — are
// quarantined (renamed *.quarantine, dropped from the descriptor) and the
// table opens over the survivors; one bad file never takes the table down.
func OpenTable(root, name string, opts Options) (*Table, error) {
	o := opts.withDefaults()
	dir := filepath.Join(root, name)
	d, err := readDescriptor(o.FS, dir)
	if err != nil {
		return nil, err
	}
	if err := cleanOrphans(o.FS, dir, d); err != nil {
		return nil, err
	}
	return openTable(dir, d, o)
}

func openTable(dir string, d *descriptor, opts Options) (*Table, error) {
	t := &Table{
		name:    d.Name,
		dir:     dir,
		opts:    opts,
		sc:      d.Schema,
		ttl:     d.TTL,
		rollups: d.Rollups,
		nextSeq: d.NextSeq,
		filling: make(map[period.Period]*fillingTablet),
	}
	t.flushCond = sync.NewCond(&t.mu)
	t.maintCond = sync.NewCond(&t.mu)
	t.merging = make(map[period.Period]bool)
	t.mergeWaitSince = make(map[period.Period]int64)
	t.stop = make(chan struct{})
	if rate := opts.maintenanceIOBytesPerSec(); rate > 0 {
		t.ioBudget = newIOBudget(rate, t.stop, &t.stats)
	}
	if opts.BlockCacheBytes > 0 {
		t.blockCache = blockcache.New(opts.BlockCacheBytes)
	}
	now := opts.Clock.Now()
	quarantined := 0
	for _, rec := range d.Tablets {
		path := t.tabletPath(rec)
		tab, err := tablet.OpenFS(opts.FS, path)
		if err == nil && opts.VerifyOnOpen {
			if verr := tab.VerifyBlocks(); verr != nil {
				tab.Close()
				tab, err = nil, verr
			}
		}
		if err != nil {
			// Degrade instead of dying: set the damaged file aside, drop it
			// from the descriptor, and keep serving the remaining tablets.
			t.quarantine(path, rec, err)
			quarantined++
			continue
		}
		t.disk = append(t.disk, t.newDiskTablet(rec, tab, now, period.For(rec.MinTs, now).Gran))
		if rec.MaxTs > t.maxTs || !t.hasRows {
			t.maxTs = rec.MaxTs
			t.hasRows = true
		}
	}
	t.sortDiskLocked()
	if quarantined > 0 {
		// Persist the reduced tablet list so the next open does not trip
		// over the same files; the quarantined rows are gone from the
		// table's point of view.
		if err := t.writeDescriptorLocked(); err != nil {
			t.closeAllLocked()
			return nil, fmt.Errorf("core: descriptor update after quarantine: %w", err)
		}
	}
	t.flushKick = t.startWorkers(opts.FlushWorkers, t.flushPass)
	t.maintKick = t.startWorkers(opts.MergeWorkers, t.maintPass)
	return t, nil
}

// quarantine sets aside a tablet file that failed to open: renamed to
// *.quarantine (kept for post-mortems, invisible to orphan cleaning),
// logged, and counted. Rename failure is tolerated — the file then remains
// as an orphan and its rows are equally lost — because quarantine must
// never be the thing that takes the table down.
func (t *Table) quarantine(path string, rec tabletRecord, cause error) {
	qpath := path + quarantineSuffix
	if err := t.opts.FS.Rename(path, qpath); err != nil {
		t.opts.Logf("littletable: quarantine rename %s: %v", rec.File, err)
	} else if t.opts.SyncWrites {
		if err := t.opts.FS.SyncDir(vfs.DirOf(path)); err != nil {
			t.opts.Logf("littletable: quarantine syncdir %s: %v", rec.File, err)
		}
	}
	t.opts.Logf("littletable: quarantined tablet %s (%d rows): %v", rec.File, rec.RowCount, cause)
	t.stats.TabletsQuarantined.Add(1)
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the current schema.
func (t *Table) Schema() *schema.Schema {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sc
}

// TTL returns the row time-to-live in microseconds (0 = never expires).
func (t *Table) TTL() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ttl
}

// Stats exposes the table's counters.
func (t *Table) Stats() *Stats { return &t.stats }

// Now returns the engine's current time in microseconds; the server uses
// it to timestamp rows whose clients omitted one (§3.1).
func (t *Table) Now() int64 { return t.opts.Clock.Now() }

// tabletPath is where rec's file lives: the table's directory, or the
// cold directory it was tiered to (§6).
func (t *Table) tabletPath(rec tabletRecord) string {
	if rec.Dir != "" {
		return filepath.Join(rec.Dir, rec.File)
	}
	return filepath.Join(t.dir, rec.File)
}

// newDiskTablet builds every tablet the table holds: it connects the open
// tab to the shared block cache, when one is configured, and gives it the
// table's base reference. gran is the period granularity the merge delay
// measures the tablet against.
func (t *Table) newDiskTablet(rec tabletRecord, tab *tablet.Tablet, addedAt int64, gran period.Granularity) *diskTablet {
	if t.blockCache != nil {
		tab.SetBlockCache(t.blockCache, t.nextHandle.Add(1))
	}
	return &diskTablet{rec: rec, tab: tab, path: t.tabletPath(rec), refs: 1, addedAt: addedAt, wroteGran: gran}
}

// writeTablet is the one way the table writes a tablet file (§3.4.1): it
// streams the rows of src that keep accepts (nil keeps all) into tablet
// seq through fsys, in one pass, then reopens the file for reading.
// rowsHint bounds the rows written. On error no file is left behind; src
// stays the caller's to close.
func (t *Table) writeTablet(sc *schema.Schema, seq uint64, fsys vfs.FS, rowsHint int64, src rowSource, keep func(schema.Row) bool) (tabletRecord, *tablet.Tablet, error) {
	rec := tabletRecord{File: tabletFileName(seq), Seq: seq}
	path := t.tabletPath(rec)
	w, err := tablet.Create(path, sc, t.opts.tabletWriter(fsys, rowsHint))
	if err != nil {
		return rec, nil, err
	}
	for {
		row, ok := src.next()
		if !ok {
			err = src.err()
			break
		}
		if keep != nil && !keep(row) {
			continue
		}
		if err = w.Append(row); err != nil {
			break
		}
	}
	if err != nil {
		_ = w.Abort() // best-effort cleanup; the original error wins
		return rec, nil, err
	}
	info, err := w.Close()
	if err != nil {
		return rec, nil, err
	}
	t.stats.addEncode(info.Enc)
	tab, err := tablet.OpenFS(t.opts.FS, path)
	if err != nil {
		_ = t.opts.FS.Remove(path)
		return rec, nil, fmt.Errorf("core: reopen written tablet: %w", err)
	}
	rec.RowCount, rec.MinTs, rec.MaxTs, rec.Bytes = info.RowCount, info.MinTs, info.MaxTs, info.Bytes
	return rec, tab, nil
}

// BlockCacheStats reports cumulative cache hits and misses (zeros when the
// cache is disabled).
func (t *Table) BlockCacheStats() (hits, misses int64) {
	if t.blockCache == nil {
		return 0, 0
	}
	return t.blockCache.Stats()
}

// DiskTabletCount returns the number of on-disk tablets.
func (t *Table) DiskTabletCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.disk)
}

// MemTabletCount returns filling plus frozen-pending in-memory tablets.
func (t *Table) MemTabletCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.filling)
	for _, g := range t.pending {
		n += len(g.tablets)
	}
	return n
}

// DiskBytes returns the on-disk size of all tablets.
func (t *Table) DiskBytes() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var n int64
	for _, dt := range t.disk {
		n += dt.rec.Bytes
	}
	return n
}

// RowEstimate returns the row count across disk tablets and memtables.
func (t *Table) RowEstimate() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var n int64
	for _, dt := range t.disk {
		n += dt.rec.RowCount
	}
	for _, f := range t.filling {
		n += int64(f.mt.Len())
	}
	for _, g := range t.pending {
		for _, f := range g.tablets {
			n += int64(f.mt.Len())
		}
	}
	return n
}

func (t *Table) sortDiskLocked() {
	// Insertion sort: the list is nearly sorted after every mutation.
	d := t.disk
	for i := 1; i < len(d); i++ {
		for j := i; j > 0 && diskLess(d[j], d[j-1]); j-- {
			d[j], d[j-1] = d[j-1], d[j]
		}
	}
}

// diskLess orders tablets by their timespans' lower bounds (§3.4.1), with
// creation sequence as the tiebreaker.
func diskLess(a, b *diskTablet) bool {
	if a.rec.MinTs != b.rec.MinTs {
		return a.rec.MinTs < b.rec.MinTs
	}
	return a.rec.Seq < b.rec.Seq
}

// insertReq is one caller's batch waiting in the group-commit queue.
type insertReq struct {
	rows []schema.Row
	sc   *schema.Schema // schema the rows were validated against
	err  error
	done chan struct{}
}

// Insert adds a batch of rows. Each row must match the schema; a row whose
// timestamp is zero and whose key duplicates nothing is NOT timestamped
// here — timestamp defaulting is the wire layer's job (§3.1). Inserts are
// atomic per row, not per batch: on error, rows before the failing one
// remain inserted, matching a database whose batches are a transport
// optimization rather than transactions.
//
// Concurrent Insert calls group-commit: each caller validates its rows
// against the schema outside any lock and enqueues them, and whichever
// caller holds the insert lock applies every queued batch before
// releasing it. Batches are applied in queue order, so "insertion order"
// under concurrency is the order batches entered the queue.
func (t *Table) Insert(rows []schema.Row) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrTableClosed
	}
	sc := t.sc
	t.mu.Unlock()
	for _, row := range rows {
		if err := sc.Validate(row); err != nil {
			return err
		}
	}

	req := &insertReq{rows: rows, sc: sc, done: make(chan struct{})}
	t.iqMu.Lock()
	t.insertQ = append(t.insertQ, req)
	t.iqMu.Unlock()

	t.insertMu.Lock()
	t.iqMu.Lock()
	queued := t.insertQ
	t.insertQ = nil
	t.iqMu.Unlock()
	if len(queued) > 0 {
		t.stats.GroupCommits.Add(1)
		for _, r := range queued {
			r.err = t.applyBatch(r)
			close(r.done)
		}
	}
	t.insertMu.Unlock()
	// Our batch may have been applied by a previous lock holder, in which
	// case queued above was empty or ours was not in it; either way the
	// result is on the request.
	<-req.done
	if req.err != nil {
		return req.err
	}
	// A background flush may have lost previously accepted rows (a failed
	// descriptor commit); surface that to the next caller. ErrRowsLost
	// refers to those earlier rows — this batch itself was applied.
	return t.takeAsyncErr()
}

// takeAsyncErr returns and clears the row-loss error latched by a
// background flush, if any.
func (t *Table) takeAsyncErr() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	err := t.asyncErr
	t.asyncErr = nil
	return err
}

// insertChunk is how many rows one table-lock acquisition applies.
// §5.1.2's Figure 2 shows batch size dominating insert throughput; above
// the transport, amortizing the lock and the uniqueness fast path over a
// chunk of rows is the in-process analogue.
const insertChunk = 256

// applyBatch uniqueness-checks and applies one caller's rows in chunks of
// insertChunk, taking the table lock once per chunk instead of once per
// row. Caller holds insertMu.
func (t *Table) applyBatch(req *insertReq) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrTableClosed
	}
	sc := t.sc
	maxTs, hasRows := t.maxTs, t.hasRows
	t.mu.Unlock()
	if sc != req.sc {
		// A schema change slipped in between validation and application;
		// re-validate under the current schema.
		for _, row := range req.rows {
			if err := sc.Validate(row); err != nil {
				return err
			}
		}
	}

	now := t.opts.Clock.Now()
	inserted := int64(0)
	defer func() {
		// Count exactly what landed: a mid-batch failure (duplicate key)
		// leaves the earlier rows inserted (batches are a transport
		// optimization, not transactions).
		t.stats.RowsInserted.Add(inserted)
		t.stats.InsertBatches.Add(1)
	}()
	rows := req.rows
	for len(rows) > 0 {
		n := min(insertChunk, len(rows))
		// Uniqueness, cheapest check first (§3.4.4), amortized over the
		// chunk: a row whose timestamp exceeds every timestamp in the
		// table — and in the rows about to be applied ahead of it — is
		// unique without taking the lock (keys embed the timestamp). Only
		// rows that fail this batch fast path pay the per-row check.
		// insertMu is held, so no other inserter can move maxTs under us;
		// nothing else ever raises it. A row that fails truncates the
		// chunk: the rows before it still apply (per-row atomicity), then
		// its error surfaces.
		//
		// checkUnique probes table state, which cannot see rows earlier in
		// this same chunk (none are applied until applyChunk below), so
		// intra-chunk duplicates are caught here. memtable.Insert's
		// collision check is not a reliable backstop: a mid-chunk seal
		// swaps in a fresh memtable that has never seen the earlier row.
		// Keys embed the timestamp, so only rows sharing a timestamp can
		// collide: chunk rows are indexed by ts, and a row that finds an
		// earlier same-ts row compares full keys. The second of a duplicate
		// pair always has ts <= maxTs (the first raised maxTs to at least
		// their shared ts), so checking on the slow path alone is complete.
		var chunkErr error
		var byTs map[int64][]int // ts -> chunk rows seen with that ts
		if n > 1 {
			byTs = make(map[int64][]int, n)
		}
		for i, row := range rows[:n] {
			ts := sc.Ts(row)
			if hasRows && ts <= maxTs {
				for _, j := range byTs[ts] {
					if sc.CompareKeys(row, rows[j]) == 0 {
						n, chunkErr = i, fmt.Errorf("%w: %v", ErrDuplicateKey, sc.KeyOf(row))
						break
					}
				}
				if chunkErr != nil {
					break
				}
				unique, err := t.checkUnique(sc, row, now)
				if err != nil {
					n, chunkErr = i, err
					break
				}
				if !unique {
					n, chunkErr = i, fmt.Errorf("%w: %v", ErrDuplicateKey, sc.KeyOf(row))
					break
				}
			} else {
				t.stats.UniqueFastNew.Add(1)
			}
			if byTs != nil {
				byTs[ts] = append(byTs[ts], i)
			}
			if !hasRows || ts > maxTs {
				maxTs, hasRows = ts, true
			}
		}
		applied, err := t.applyChunk(sc, rows[:n], now)
		inserted += int64(applied)
		if err != nil {
			return err
		}
		if chunkErr != nil {
			return chunkErr
		}
		rows = rows[n:]
		if err := t.backpressure(); err != nil {
			return err
		}
	}
	return nil
}

// applyChunk routes validated, uniqueness-checked rows to their periods'
// filling tablets under one lock acquisition, maintaining the
// flush-dependency graph and sealing tablets that reach FlushSize. It
// returns how many rows were applied (all of them unless two rows in the
// chunk collide on a key).
func (t *Table) applyChunk(sc *schema.Schema, rows []schema.Row, now int64) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return 0, ErrTableClosed
	}
	for i, row := range rows {
		ts := sc.Ts(row)
		per := period.For(ts, now)
		ft := t.filling[per]
		if ft == nil {
			ft = &fillingTablet{mt: memtable.New(sc), per: per}
			t.filling[per] = ft
		}
		// Flush-dependency edge (§3.4.3): if the previous insert landed in
		// a different, still-unflushed tablet u, then u must flush before
		// ft so that retained rows are always a prefix of insertion order.
		if t.lastInsert != nil && t.lastInsert != ft && !t.lastInsert.frozen {
			if ft.prereqs == nil {
				ft.prereqs = make(map[*fillingTablet]bool)
			}
			ft.prereqs[t.lastInsert] = true
		}
		t.lastInsert = ft
		if !ft.mt.Insert(now, row) {
			// Uniqueness — including intra-chunk duplicates — was vetted
			// before application; a collision here is a defensive backstop
			// that should be unreachable.
			return i, fmt.Errorf("%w: %v", ErrDuplicateKey, sc.KeyOf(row))
		}
		if ts > t.maxTs || !t.hasRows {
			t.maxTs = ts
			t.hasRows = true
		}
		if ft.mt.SizeBytes() >= t.opts.FlushSize {
			t.sealLocked(ft)
		}
	}
	return len(rows), nil
}

func (t *Table) pendingTabletsLocked() int {
	n := 0
	for _, g := range t.pending {
		n += len(g.tablets)
	}
	return n
}

// sealLocked freezes ft together with the transitive closure of tablets
// that must flush before it, swapping each out of the filling set and
// appending them to the pending queue as one atomic flush group. Cycles in
// the dependency graph (§3.4.3) simply land in the same group. The group's
// encoded size joins the sealed-but-unflushed backlog for backpressure
// accounting, and the flush workers' doorbell rings.
func (t *Table) sealLocked(ft *fillingTablet) {
	if ft.frozen {
		return
	}
	var group []*fillingTablet
	var visit func(f *fillingTablet)
	visit = func(f *fillingTablet) {
		if f.frozen {
			return
		}
		f.frozen = true
		f.mt.Freeze()
		delete(t.filling, f.per)
		if t.lastInsert == f {
			t.lastInsert = nil
		}
		for u := range f.prereqs {
			visit(u)
		}
		group = append(group, f)
	}
	visit(ft)
	// Order within the group doesn't affect durability (the descriptor
	// update is atomic), but flushing older periods first keeps the disk
	// list closer to sorted.
	for i := 1; i < len(group); i++ {
		for j := i; j > 0 && periodBefore(group[j].per, group[j-1].per); j-- {
			group[j], group[j-1] = group[j-1], group[j]
		}
	}
	g := &flushGroup{tablets: group}
	for _, f := range group {
		g.bytes += int64(f.mt.SizeBytes())
	}
	t.sealedBytes += g.bytes
	t.stats.TabletsSealed.Add(int64(len(group)))
	t.pending = append(t.pending, g)
	ring(t.flushKick)
}

// acquireLocked takes a read reference on dt.
func (t *Table) acquireLocked(dt *diskTablet) { dt.refs++ }

// claim marks every disk tablet that want accepts, and no other
// maintenance holds, busy, and takes a reference on each, so a rewrite can
// run without t.mu. unclaim undoes it.
func (t *Table) claim(want func(*diskTablet) bool) ([]*diskTablet, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, ErrTableClosed
	}
	var claimed []*diskTablet
	for _, dt := range t.disk {
		if !dt.busy && want(dt) {
			dt.busy = true
			t.acquireLocked(dt)
			claimed = append(claimed, dt)
		}
	}
	return claimed, nil
}

// unclaim clears the busy marks claim set and drops its references.
func (t *Table) unclaim(claimed []*diskTablet) {
	t.mu.Lock()
	for _, dt := range claimed {
		dt.busy = false
	}
	t.mu.Unlock()
	for _, dt := range claimed {
		t.release(dt)
	}
}

// release drops a reference; the last release of a dropped tablet closes
// and deletes it.
func (t *Table) release(dt *diskTablet) {
	t.mu.Lock()
	dt.refs--
	drop := dt.dropped && dt.refs == 0
	t.mu.Unlock()
	if drop {
		dt.tab.Close()
		t.opts.FS.Remove(dt.path)
	}
}

// Close flushes nothing (matching the durability model: a crash and a
// close lose the same unflushed rows unless FlushAll is called first) and
// releases all resources.
func (t *Table) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	close(t.stop)
	// Wake inserters stalled on backpressure, drainers waiting for
	// in-flight groups, and MaintainUntilQuiet waiters; they observe
	// closed and bail out.
	t.flushCond.Broadcast()
	t.maintCond.Broadcast()
	t.mu.Unlock()
	// Workers may be mid-write; they notice closed at commit time, abort
	// their output files, and exit before we tear the tablet list down.
	t.workers.Wait()
	t.mu.Lock()
	t.closeAllLocked()
	t.mu.Unlock()
	return nil
}

func (t *Table) closeAllLocked() {
	for _, dt := range t.disk {
		dt.tab.Close()
	}
	t.disk = nil
	t.filling = map[period.Period]*fillingTablet{}
	t.pending = nil
	t.sealedBytes = 0
}

// AlterTTL changes the table's time-to-live and persists it.
func (t *Table) AlterTTL(ttl int64) error {
	t.insertMu.Lock()
	defer t.insertMu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrTableClosed
	}
	old := t.ttl
	t.ttl = ttl
	if err := t.writeDescriptorLocked(); err != nil {
		t.ttl = old
		return err
	}
	return nil
}

// AddColumn appends a column to the schema (§3.5). Existing tablets keep
// their old schema version; reads translate.
func (t *Table) AddColumn(col schema.Column) error {
	return t.alterSchema(func(sc *schema.Schema) (*schema.Schema, error) {
		return sc.AddColumn(col)
	})
}

// WidenColumn widens an int32 value column to int64 (§3.5).
func (t *Table) WidenColumn(name string) error {
	return t.alterSchema(func(sc *schema.Schema) (*schema.Schema, error) {
		return sc.WidenColumn(name)
	})
}

func (t *Table) alterSchema(f func(*schema.Schema) (*schema.Schema, error)) error {
	t.insertMu.Lock()
	defer t.insertMu.Unlock()
	// Schema changes must not interleave with a flush writing the old
	// schema header after the descriptor says otherwise; flushing pending
	// tablets first keeps every on-disk tablet self-describing anyway, so
	// just drain.
	if err := t.flushPending(); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrTableClosed
	}
	next, err := f(t.sc)
	if err != nil {
		return err
	}
	old := t.sc
	t.sc = next
	// In-memory filling tablets hold rows of the old schema; seal them so
	// subsequent inserts (new arity) start fresh tablets.
	t.sealFillingLocked(nil)
	if err := t.writeDescriptorLocked(); err != nil {
		t.sc = old
		return err
	}
	return nil
}

// buildDescriptorLocked snapshots the current persistable state; callers
// hold t.mu.
func (t *Table) buildDescriptorLocked() *descriptor {
	d := &descriptor{
		Name:    t.name,
		Schema:  t.sc,
		TTL:     t.ttl,
		NextSeq: t.nextSeq,
		Rollups: t.rollups,
	}
	for _, dt := range t.disk {
		d.Tablets = append(d.Tablets, dt.rec)
	}
	return d
}

// writeDescriptorLocked persists current state synchronously; callers hold
// t.mu. Foreground paths (flush commit, schema changes, deletes) use it so
// their error handling stays atomic with the mutation; it takes descMu for
// the file write so it cannot interleave with a background
// persistDescriptor and regress the on-disk snapshot.
func (t *Table) writeDescriptorLocked() error {
	t.descGen++
	gen := t.descGen
	d := t.buildDescriptorLocked()
	t.descMu.Lock()
	defer t.descMu.Unlock()
	if err := writeDescriptor(t.opts.FS, t.dir, d, t.opts.SyncWrites); err != nil {
		return err
	}
	if gen > t.descWritten {
		t.descWritten = gen
	}
	return nil
}

// bumpDescGenLocked records that in-memory state has moved ahead of the
// on-disk descriptor; the caller must follow up with persistDescriptor
// after releasing mu. Caller holds t.mu.
func (t *Table) bumpDescGenLocked() { t.descGen++ }

// persistDescriptor writes the newest descriptor snapshot without holding
// t.mu across the disk I/O: snapshot under mu (cheap), write under descMu.
// If a later generation already reached disk — a racing commit persisted a
// snapshot that includes this caller's mutation, since snapshots are
// always of the full current state — the write is skipped. Success means
// the on-disk descriptor reflects at least the state at the caller's bump.
// Caller must NOT hold t.mu.
func (t *Table) persistDescriptor() error {
	t.mu.Lock()
	gen := t.descGen
	d := t.buildDescriptorLocked()
	t.mu.Unlock()
	t.descMu.Lock()
	defer t.descMu.Unlock()
	if gen <= t.descWritten {
		return nil
	}
	if err := writeDescriptor(t.opts.FS, t.dir, d, t.opts.SyncWrites); err != nil {
		return err
	}
	t.descWritten = gen
	return nil
}

// expireBefore returns the timestamp before which rows are expired, or
// math.MinInt64-ish sentinel when no TTL is set.
func expireBefore(now, ttl int64) int64 {
	if ttl <= 0 {
		return minInt64
	}
	return now - ttl
}

const (
	minInt64 = -1 << 63
	maxInt64 = 1<<63 - 1
)

// LastKeyInPeriod support: maxKeyOf returns the largest key in a memtable
// as encoded values, for the uniqueness fast path.
func memMaxKey(sc *schema.Schema, mt *memtable.Memtable) ([]ltval.Value, bool) {
	row, ok := mt.MaxKeyRow()
	if !ok {
		return nil, false
	}
	return sc.KeyOf(row), true
}
