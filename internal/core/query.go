package core

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sync"

	"littletable/internal/ltval"
	"littletable/internal/memtable"
	"littletable/internal/schema"
	"littletable/internal/tablet"
)

// Query is a two-dimensional bounding box (§3.1): primary keys or prefixes
// thereof in one dimension, timestamps in the other. Bounds may be
// inclusive or exclusive. Use NewQuery for an unbounded starting point.
type Query struct {
	// Lower and Upper bound the primary key; nil means unbounded. A bound
	// shorter than the full key acts as a prefix: rows equal on the prefix
	// are inside an inclusive bound and outside an exclusive one.
	Lower, Upper       []ltval.Value
	LowerInc, UpperInc bool

	// MinTs and MaxTs bound row timestamps, inclusive.
	MinTs, MaxTs int64

	// Descending reverses the result order (§3.5).
	Descending bool

	// Limit caps returned rows; 0 means no client limit. The server applies
	// its own limit on top and signals more-available.
	Limit int
}

// TsMin and TsMax are the unbounded timestamp sentinels for Query.
const (
	TsMin int64 = minInt64
	TsMax int64 = maxInt64
)

// NewQuery returns a query matching every row, to be narrowed by callers.
func NewQuery() Query {
	return Query{LowerInc: true, UpperInc: true, MinTs: minInt64, MaxTs: maxInt64}
}

// rowSource yields rows of the table's current schema in key order.
type rowSource interface {
	// next advances and returns the next row, or ok=false when exhausted.
	// A source may reuse one row buffer: the row is valid only until the
	// following next.
	next() (schema.Row, bool)
	err() error
	close()
}

// memSource iterates rows copied out of a memtable at snapshot time, so
// queries never race concurrent inserts into the live tree. The copies are
// bounded by the query's box.
type memSource struct {
	rows []schema.Row
	i    int
}

func (m *memSource) next() (schema.Row, bool) {
	if m.i >= len(m.rows) {
		return nil, false
	}
	r := m.rows[m.i]
	m.i++
	return r, true
}
func (m *memSource) err() error { return nil }
func (m *memSource) close()     {}

// collectMemRows copies the rows of mt that fall inside the query's key
// box, in the query's direction. Time filtering happens at the iterator.
func collectMemRows(cur *schema.Schema, mt *memtable.Memtable, q *Query, scanned *int64) *memSource {
	var c *memtable.Cursor
	asc := !q.Descending
	start := q.Lower
	if !asc {
		start = q.Upper
	}
	if start == nil {
		c = mt.Cursor(asc)
	} else {
		c = mt.Seek(start, asc)
	}
	sc := mt.Schema()
	ms := &memSource{}
	for c.Next() {
		row := c.Row()
		*scanned++
		if asc {
			if !q.LowerInc && q.Lower != nil && sc.CompareRowToKey(row, q.Lower) == 0 {
				continue
			}
			if q.Upper != nil {
				cmp := sc.CompareRowToKey(row, q.Upper)
				if cmp > 0 || (cmp == 0 && !q.UpperInc) {
					break
				}
			}
		} else {
			if !q.UpperInc && q.Upper != nil && sc.CompareRowToKey(row, q.Upper) == 0 {
				continue
			}
			if q.Lower != nil {
				cmp := sc.CompareRowToKey(row, q.Lower)
				if cmp < 0 || (cmp == 0 && !q.LowerInc) {
					break
				}
			}
		}
		// Copy: the live tree may keep growing under the inserter.
		ms.rows = append(ms.rows, cur.Translate(sc, schema.CloneRow(row)))
	}
	return ms
}

// diskSource adapts a tablet cursor: bound-aware stopping, exclusive-bound
// skipping, schema translation, and scan accounting.
type diskSource struct {
	cur     *schema.Schema
	tabSc   *schema.Schema
	c       *tablet.Cursor
	q       *Query
	scanned *int64
	done    bool
}

func newDiskSource(cur *schema.Schema, tab *tablet.Tablet, q *Query, scanned *int64, ro tablet.ReadOptions) (*diskSource, error) {
	// The query's key box bounds the cursor at both ends, so it (and its
	// prefetch pipeline) reads only blocks that can hold an in-range row.
	c, err := tab.SeekRange(q.Lower, q.Upper, !q.Descending, ro)
	if err != nil {
		return nil, err
	}
	return &diskSource{cur: cur, tabSc: tab.Schema(), c: c, q: q, scanned: scanned}, nil
}

func (d *diskSource) next() (schema.Row, bool) {
	if d.done {
		return nil, false
	}
	asc := !d.q.Descending
	for d.c.Next() {
		row := d.c.Row()
		*d.scanned++
		if asc {
			if !d.q.LowerInc && d.q.Lower != nil && d.tabSc.CompareRowToKey(row, d.q.Lower) == 0 {
				continue
			}
			if d.q.Upper != nil {
				cmp := d.tabSc.CompareRowToKey(row, d.q.Upper)
				if cmp > 0 || (cmp == 0 && !d.q.UpperInc) {
					d.done = true
					return nil, false
				}
			}
		} else {
			if !d.q.UpperInc && d.q.Upper != nil && d.tabSc.CompareRowToKey(row, d.q.Upper) == 0 {
				continue
			}
			if d.q.Lower != nil {
				cmp := d.tabSc.CompareRowToKey(row, d.q.Lower)
				if cmp < 0 || (cmp == 0 && !d.q.LowerInc) {
					d.done = true
					return nil, false
				}
			}
		}
		return d.cur.Translate(d.tabSc, row), true
	}
	d.done = true
	return nil, false
}

func (d *diskSource) err() error { return d.c.Err() }
func (d *diskSource) close()     { d.c.Close() }

// merger merge-sorts rowSources by primary key (§3.2: "merge-sorts the
// resulting streams to form a single result stream ordered by primary
// key"). Duplicate keys across sources cannot arise from correct inserts,
// but they are suppressed defensively: the newest source's row surfaces
// and the rest are dropped.
//
// Sources reuse their row buffers, so a source is stepped only once the
// row it last yielded is dead — at the start of the following next — and
// the last key is remembered as a copy, never as a reference to a row.
type merger struct {
	sc      *schema.Schema
	asc     bool
	item    []mergeItem   // a heap, ordered by Less
	stepTop bool          // item[0]'s row was yielded: step its source first
	lastKey []ltval.Value // the last yielded row's key
	keyBuf  []byte        // backs lastKey's byte cells
}

type mergeItem struct {
	row schema.Row
	src rowSource
	ord int // source index, breaking ties deterministically (newer first)
}

func (m *merger) Len() int { return len(m.item) }
func (m *merger) Less(i, j int) bool {
	c := m.sc.CompareKeys(m.item[i].row, m.item[j].row)
	if c == 0 {
		return m.item[i].ord > m.item[j].ord // newer source wins ties
	}
	if m.asc {
		return c < 0
	}
	return c > 0
}
func (m *merger) Swap(i, j int)      { m.item[i], m.item[j] = m.item[j], m.item[i] }
func (m *merger) Push(x interface{}) { m.item = append(m.item, x.(mergeItem)) }
func (m *merger) Pop() interface{} {
	n := len(m.item) - 1
	it := m.item[n]
	m.item = m.item[:n]
	return it
}

// add enters src into the merge at its first row; on equal keys the
// source with the higher ord (the newer one) wins.
func (m *merger) add(src rowSource, ord int) error {
	if row, ok := src.next(); ok {
		heap.Push(m, mergeItem{row: row, src: src, ord: ord})
		return nil
	}
	return src.err()
}

// next returns the next row in key order, or nil when the sources are
// exhausted. The row is valid until the following next.
func (m *merger) next() (schema.Row, error) {
	for {
		if m.stepTop {
			top := &m.item[0]
			if row, ok := top.src.next(); ok {
				top.row = row
				heap.Fix(m, 0)
			} else if err := top.src.err(); err != nil {
				return nil, err
			} else {
				heap.Pop(m)
			}
			m.stepTop = false
		}
		if len(m.item) == 0 {
			return nil, nil
		}
		row := m.item[0].row
		m.stepTop = true
		if m.lastKey != nil && m.sc.CompareRowToKey(row, m.lastKey) == 0 {
			continue
		}
		m.lastKey, m.keyBuf = m.lastKey[:0], m.keyBuf[:0]
		for _, k := range m.sc.Key {
			v := row[k]
			if v.Bytes != nil {
				m.keyBuf = append(m.keyBuf, v.Bytes...)
				v.Bytes = m.keyBuf[len(m.keyBuf)-len(v.Bytes):]
			}
			m.lastKey = append(m.lastKey, v)
		}
		return row, nil
	}
}

// Iterator streams a query's result rows. The merge itself runs on the
// calling goroutine, but each on-disk source may own a block-prefetch
// goroutine; Close must be called to stop them and release tablet
// references. Close is idempotent and safe to call concurrently with Next.
type Iterator struct {
	t        *Table
	q        Query
	sc       *schema.Schema
	ctx      context.Context
	cancel   context.CancelFunc
	expireLT int64 // rows with ts < expireLT are expired (TTL)

	// mu serializes Next against Close; all fields below are guarded by
	// it once the iterator is returned to the caller.
	mu       sync.Mutex
	m        merger
	sources  []rowSource
	disks    []*diskTablet
	row      schema.Row
	returned int
	scanned  int64
	firstErr error
	closed   bool
}

// Query opens an iterator over the bounding box q. The iterator sees a
// snapshot of the tablet list; rows inserted concurrently may or may not
// appear (§3.1's weak read guarantee), but the result is always key-ordered
// and duplicate-free.
func (t *Table) Query(q Query) (*Iterator, error) {
	//ltlint:ignore ctxprop Query is the public context-free shim: this Background is the designated root of the chain
	return t.QueryCtx(context.Background(), q)
}

// QueryCtx is Query bound to a context: cancelling ctx stops the
// iterator's block loads and prefetch pipelines promptly, so a timed-out
// or abandoned server query stops consuming disk.
func (t *Table) QueryCtx(ctx context.Context, q Query) (*Iterator, error) {
	if q.MinTs > q.MaxTs {
		return nil, fmt.Errorf("%w: MinTs %d > MaxTs %d", ErrBadQuery, q.MinTs, q.MaxTs)
	}
	if q.Lower != nil && q.Upper != nil {
		// Compare only the common prefix: a lower bound that extends the
		// upper prefix (e.g. lower (n, d, ts₀) under upper prefix (n, d))
		// is a legitimate box, not an inversion.
		n := len(q.Lower)
		if len(q.Upper) < n {
			n = len(q.Upper)
		}
		for i := 0; i < n; i++ {
			c := q.Lower[i].Compare(q.Upper[i])
			if c > 0 {
				return nil, fmt.Errorf("%w: lower key above upper key", ErrBadQuery)
			}
			if c < 0 {
				break
			}
		}
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, ErrTableClosed
	}
	sc := t.sc
	ttl := t.ttl
	qctx, cancel := context.WithCancel(ctx)
	it := &Iterator{
		t:        t,
		q:        q,
		sc:       sc,
		ctx:      qctx,
		cancel:   cancel,
		expireLT: expireBefore(t.opts.Clock.Now(), ttl),
		m:        merger{sc: sc, asc: !q.Descending},
	}
	var disks []*diskTablet
	for _, dt := range t.disk {
		if dt.rec.MinTs <= q.MaxTs && dt.rec.MaxTs >= q.MinTs {
			t.acquireLocked(dt)
			disks = append(disks, dt)
		}
	}
	it.disks = disks
	// Memtable rows are copied out while holding the lock: the filling
	// trees mutate under concurrent inserts, and §3.1 only promises that a
	// concurrent query returns some, all, or none of the racing rows — it
	// must still never corrupt or mis-order.
	var memSrcs []*memSource
	collectMem := func(f *fillingTablet) {
		if f.mt.Empty() {
			return
		}
		lo, hi := f.mt.Timespan()
		if lo <= q.MaxTs && hi >= q.MinTs {
			memSrcs = append(memSrcs, collectMemRows(sc, f.mt, &it.q, &it.scanned))
		}
	}
	for _, f := range t.filling {
		collectMem(f)
	}
	for _, g := range t.pending {
		for _, f := range g.tablets {
			collectMem(f)
		}
	}
	t.mu.Unlock()

	t.stats.Queries.Add(1)
	// Disk sources open outside the lock: seeks touch the filesystem. A
	// worker pool opens and positions them concurrently — each open costs
	// footer and first-block reads that are independent until the merge
	// point — falling back to a serial loop at parallelism 1.
	ro := tablet.ReadOptions{Ctx: qctx, PrefetchDepth: t.opts.prefetchDepth()}
	dsrcs := make([]*diskSource, len(disks))
	errs := make([]error, len(disks))
	par := t.opts.queryParallelism()
	if par > len(disks) {
		par = len(disks)
	}
	if par > 1 {
		t.stats.ParallelOpens.Add(int64(len(disks)))
		var wg sync.WaitGroup
		idx := make(chan int)
		for w := 0; w < par; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					dsrcs[i], errs[i] = newDiskSource(sc, disks[i].tab, &it.q, &it.scanned, ro)
				}
			}()
		}
		for i := range disks {
			idx <- i
		}
		close(idx)
		wg.Wait()
	} else {
		for i, dt := range disks {
			dsrcs[i], errs[i] = newDiskSource(sc, dt.tab, &it.q, &it.scanned, ro)
			if errs[i] != nil {
				break
			}
		}
	}
	for _, src := range dsrcs {
		if src != nil {
			it.sources = append(it.sources, src)
		}
	}
	for _, err := range errs {
		if err != nil {
			t.stats.ReadErrors.Add(1)
			it.Close()
			return nil, err
		}
	}
	// Prime the heap in tablet order so ties break deterministically
	// (newer source wins) regardless of open order.
	ord := 0
	it.sources = it.sources[:0]
	for _, src := range dsrcs {
		it.push(src, ord)
		ord++
	}
	for _, src := range memSrcs {
		it.push(src, ord)
		ord++
	}
	if it.firstErr != nil {
		err := it.firstErr
		it.Close()
		return nil, err
	}
	return it, nil
}

func (it *Iterator) push(src rowSource, ord int) {
	it.sources = append(it.sources, src)
	if err := it.m.add(src, ord); err != nil && it.firstErr == nil {
		it.firstErr = err
		it.t.stats.ReadErrors.Add(1)
	}
}

// Next advances to the next result row.
func (it *Iterator) Next() bool {
	it.mu.Lock()
	defer it.mu.Unlock()
	if it.closed || it.firstErr != nil {
		return false
	}
	if it.q.Limit > 0 && it.returned >= it.q.Limit {
		return false
	}
	for {
		row, err := it.m.next()
		if err != nil {
			it.firstErr = err
			if !errors.Is(err, context.Canceled) {
				// Cancellation surfacing mid-merge (a concurrent
				// Close, a server timeout) is not a storage fault.
				it.t.stats.ReadErrors.Add(1)
			}
			return false
		}
		if row == nil {
			return false
		}
		ts := it.sc.Ts(row)
		if ts < it.q.MinTs || ts > it.q.MaxTs {
			continue // outside the box's time bounds (§3.2)
		}
		if ts < it.expireLT {
			continue // expired by TTL but not yet reclaimed (§3.3)
		}
		it.row = row
		it.returned++
		return true
	}
}

// Row returns the current row, valid after Next reports true; its storage
// belongs to the source it came from and is overwritten by the following
// Next, so callers that keep a row clone it (schema.CloneRow).
func (it *Iterator) Row() schema.Row {
	it.mu.Lock()
	defer it.mu.Unlock()
	return it.row
}

// Err returns the first error the iterator encountered.
func (it *Iterator) Err() error {
	it.mu.Lock()
	defer it.mu.Unlock()
	return it.firstErr
}

// Scanned returns rows examined so far, the numerator of Figure 9's
// scan-efficiency ratio.
func (it *Iterator) Scanned() int64 {
	it.mu.Lock()
	defer it.mu.Unlock()
	return it.scanned
}

// Returned returns rows yielded so far.
func (it *Iterator) Returned() int {
	it.mu.Lock()
	defer it.mu.Unlock()
	return it.returned
}

// Close stops prefetch pipelines, releases tablet references, and records
// scan statistics. It is idempotent and safe to call concurrently with
// Next: the context cancellation unblocks any in-flight block wait, and
// the mutex serializes the teardown against the merge loop.
func (it *Iterator) Close() error {
	// Cancel first, outside the lock: a Next blocked on a prefetched
	// block must see the cancellation to release the lock.
	it.cancel()
	it.mu.Lock()
	defer it.mu.Unlock()
	if it.closed {
		return nil
	}
	it.closed = true
	for _, src := range it.sources {
		if d, ok := src.(*diskSource); ok {
			it.t.stats.BlocksRead.Add(int64(d.c.BlocksRead))
			it.t.stats.PrefetchHits.Add(int64(d.c.PrefetchHits))
		}
		src.close()
	}
	for _, dt := range it.disks {
		it.t.release(dt)
	}
	it.t.stats.RowsScanned.Add(it.scanned)
	it.t.stats.RowsReturned.Add(int64(it.returned))
	return nil
}

// QueryAll is a convenience that materializes a query's full result.
func (t *Table) QueryAll(q Query) ([]schema.Row, error) {
	it, err := t.Query(q)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	var rows []schema.Row
	for it.Next() {
		rows = append(rows, schema.CloneRow(it.Row()))
	}
	if err := it.Err(); err != nil {
		return nil, err
	}
	return rows, nil
}
