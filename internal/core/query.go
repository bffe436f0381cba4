package core

import (
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
//
// Query is the one box type from the client to the engine: the client
// hands it to the wire codec as is, and the server hands the decoded box
// to the engine as is.
type Query struct {
	// Lower and Upper bound the primary key; nil or empty means unbounded.
	// A bound shorter than the full key acts as a prefix: rows equal on
	// the prefix are inside an inclusive bound and outside an exclusive
	// one.
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

// normalize reads an empty key bound as unbounded, as the wire codec and
// the SQL planner do. Query and DeleteWhere run it before anything else
// looks at the box.
func (q *Query) normalize() {
	if len(q.Lower) == 0 {
		q.Lower = nil
	}
	if len(q.Upper) == 0 {
		q.Upper = nil
	}
}

// validate normalizes the box and rejects one that is empty by
// construction.
func (q *Query) validate() error {
	q.normalize()
	if q.MinTs > q.MaxTs {
		return fmt.Errorf("%w: MinTs %d > MaxTs %d", ErrBadQuery, q.MinTs, q.MaxTs)
	}
	if q.Lower != nil && q.Upper != nil {
		// Compare only the common prefix: a lower bound that extends the
		// upper prefix (e.g. lower (n, d, ts₀) under upper prefix (n, d))
		// is a legitimate box, not an inversion.
		n := min(len(q.Lower), len(q.Upper))
		for i := 0; i < n; i++ {
			c := q.Lower[i].Compare(q.Upper[i])
			if c > 0 {
				return fmt.Errorf("%w: lower key above upper key", ErrBadQuery)
			}
			if c < 0 {
				break
			}
		}
	}
	return nil
}

// Query's key-box methods are the only place rows meet the Lower and
// Upper bounds; row is of schema sc.

// belowLower reports whether row lies below the box's lower key bound.
func (q *Query) belowLower(sc *schema.Schema, row schema.Row) bool {
	if q.Lower == nil {
		return false
	}
	c := sc.CompareRowToKey(row, q.Lower)
	return c < 0 || (c == 0 && !q.LowerInc)
}

// aboveUpper reports whether row lies above the box's upper key bound.
func (q *Query) aboveUpper(sc *schema.Schema, row schema.Row) bool {
	if q.Upper == nil {
		return false
	}
	c := sc.CompareRowToKey(row, q.Upper)
	return c > 0 || (c == 0 && !q.UpperInc)
}

// inBox reports whether row lies inside the box in both dimensions.
func (q *Query) inBox(sc *schema.Schema, row schema.Row) bool {
	ts := sc.Ts(row)
	return ts >= q.MinTs && ts <= q.MaxTs && !q.belowLower(sc, row) && !q.aboveUpper(sc, row)
}

// scanStep classifies the next row of a cursor seeked to the box's start
// bound in the query's direction: skip a row on an exclusive start bound,
// stop at the first row past the far bound. A seek never yields a row
// before an inclusive start bound, so those rows cost no comparison.
func (q *Query) scanStep(sc *schema.Schema, row schema.Row) (skip, stop bool) {
	if q.Descending {
		if !q.UpperInc && q.Upper != nil && sc.CompareRowToKey(row, q.Upper) == 0 {
			return true, false
		}
		return false, q.belowLower(sc, row)
	}
	if !q.LowerInc && q.Lower != nil && sc.CompareRowToKey(row, q.Lower) == 0 {
		return true, false
	}
	return false, q.aboveUpper(sc, row)
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

// memSource yields the rows captured from a filling memtable at snapshot
// time. They are the memtable's own rows, not copies: a memtable row is
// never written after Insert (only the tree's nodes move), so once the
// walk that found them under t.mu ends, they are safe to read unlocked.
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

// treeSource streams a sealed memtable, which takes no more inserts, in
// key order without copying: the flush writes it whole.
type treeSource struct{ c *memtable.Cursor }

func (s treeSource) next() (schema.Row, bool) {
	if !s.c.Next() {
		return nil, false
	}
	return s.c.Row(), true
}
func (treeSource) err() error { return nil }
func (treeSource) close()     {}

// memScan walks a memtable through a query's box in the query's direction
// and yields only rows the query can return: inside the key box and the
// time window, not expired, and at most q.Limit of them. Every node walked
// counts as scanned. A filling memtable is walked under t.mu at snapshot
// time; a sealed one takes no more inserts, so the merge pulls from its
// memScan in place.
//
// Filtering here cannot change a result. Keys end in ts, so every copy of
// a key shares one timestamp and the filter takes or drops them together;
// TTL is decided by ts too. And the Limit-th result row consumes at most
// Limit distinct keys of any one source.
type memScan struct {
	cur, sc *schema.Schema
	c       *memtable.Cursor
	q       *Query
	lo, hi  int64 // the time window, TTL folded into lo
	left    int   // rows still to yield; negative means no limit
	scanned *int64
}

func newMemScan(cur *schema.Schema, mt *memtable.Memtable, q *Query, expireLT int64, scanned *int64) memScan {
	asc := !q.Descending
	start := q.Lower
	if !asc {
		start = q.Upper
	}
	var c *memtable.Cursor
	if start == nil {
		c = mt.Cursor(asc)
	} else {
		c = mt.Seek(start, asc)
	}
	left := q.Limit
	if left <= 0 {
		left = -1
	}
	return memScan{cur: cur, sc: mt.Schema(), c: c, q: q, lo: max(q.MinTs, expireLT), hi: q.MaxTs, left: left, scanned: scanned}
}

func (s *memScan) next() (schema.Row, bool) {
	for s.left != 0 && s.c.Next() {
		row := s.c.Row()
		*s.scanned++
		skip, stop := s.q.scanStep(s.sc, row)
		if stop {
			break
		}
		if ts := s.sc.Ts(row); skip || ts < s.lo || ts > s.hi {
			continue
		}
		s.left--
		return s.cur.Translate(s.sc, row), true
	}
	s.left = 0
	return nil, false
}
func (*memScan) err() error { return nil }
func (*memScan) close()     {}

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
	for d.c.Next() {
		row := d.c.Row()
		*d.scanned++
		skip, stop := d.q.scanStep(d.tabSc, row)
		if stop {
			break
		}
		if skip {
			continue
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
// key"): a binary heap over the sources' current rows, ordered by key in
// the merge direction and, on equal keys, newer source (higher ord) first.
//
// The paper's 2-D clustering makes long runs from one source common, and
// within a run a row costs one key compare: after stepping the top source
// the merger compares its new row with the runner-up alone (item 1 or 2,
// cached until something below the root moves) and sifts down only when
// the top loses.
//
// Each source yields unique keys in strict order (the tablet writer
// rejects a key that does not advance, a memtable a duplicate insert), so
// a duplicate of the top row can only be another source's head, and it
// sorts directly behind the top: the runner-up compare that returns 0
// finds it, and the older source is stepped past that key before the top
// row is yielded. No key is copied.
//
// Sources reuse their row buffers, so a source is stepped only once the
// row it last yielded is dead: the top at the start of the following
// next, an older duplicate (never yielded) at once.
//
// A merger is itself a rowSource: it owns the sources added to it, and
// close closes them all.
type merger struct {
	sc      *schema.Schema
	asc     bool
	srcs    []rowSource // every source added, closed by close
	item    []mergeItem // a binary heap, ordered by less
	ru      int         // the runner-up's index, 1 or 2; 0 until known
	stepTop bool        // item[0]'s row was yielded: step its source first
	e       error       // the first source error; it ends the merge
}

type mergeItem struct {
	row schema.Row
	src rowSource
	ord int // source index, breaking ties deterministically (newer first)
}

// cmp orders item i's key against item j's in the merge direction.
func (m *merger) cmp(i, j int) int {
	c := m.sc.CompareKeys(m.item[i].row, m.item[j].row)
	if m.asc {
		return c
	}
	return -c
}

func (m *merger) less(i, j int) bool {
	c := m.cmp(i, j)
	return c < 0 || c == 0 && m.item[i].ord > m.item[j].ord
}

// down sifts item i towards the leaves until neither child precedes it.
func (m *merger) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(m.item) {
			return
		}
		if c+1 < len(m.item) && m.less(c+1, c) {
			c++
		}
		if !m.less(c, i) {
			return
		}
		m.item[i], m.item[c] = m.item[c], m.item[i]
		i = c
	}
}

// add enters src into the merge at its first row; on equal keys the
// source with the higher ord (the newer one) wins. The merger owns src
// from here on, even when add fails.
func (m *merger) add(src rowSource, ord int) error {
	m.srcs = append(m.srcs, src)
	row, ok := src.next()
	if !ok {
		return src.err()
	}
	m.item = append(m.item, mergeItem{row: row, src: src, ord: ord})
	for i := len(m.item) - 1; i > 0; {
		p := (i - 1) / 2
		if !m.less(i, p) {
			break
		}
		m.item[i], m.item[p] = m.item[p], m.item[i]
		i = p
	}
	m.ru = 0
	return nil
}

// step advances item i's source. A source that runs dry leaves the heap,
// the last item taking its slot; false means the source failed.
func (m *merger) step(i int) bool {
	it := &m.item[i]
	if row, ok := it.src.next(); ok {
		it.row = row
		return true
	}
	if m.e = it.src.err(); m.e != nil {
		return false
	}
	last := len(m.item) - 1
	m.item[i] = m.item[last]
	m.item = m.item[:last]
	m.ru = 0
	return true
}

// next returns the next row in key order; ok is false once the sources
// are exhausted or one of them fails (see err). The row is valid until
// the following next.
func (m *merger) next() (schema.Row, bool) {
	if m.e != nil {
		return nil, false
	}
	if m.stepTop {
		m.stepTop = false
		if !m.step(0) {
			return nil, false
		}
	}
	for len(m.item) > 1 {
		if m.ru == 0 {
			m.ru = 1
			if len(m.item) > 2 && m.less(2, 1) {
				m.ru = 2
			}
		}
		r := m.ru
		c := m.cmp(0, r)
		if c < 0 {
			break // the top still leads: the run goes on
		}
		m.ru = 0
		if c > 0 || m.item[r].ord > m.item[0].ord {
			// The runner-up is the lesser child: it takes the top's place.
			m.item[0], m.item[r] = m.item[r], m.item[0]
			m.down(r)
			continue
		}
		// The runner-up is an older source's copy of the top's key.
		if !m.step(r) {
			return nil, false
		}
		if r < len(m.item) {
			m.down(r)
		}
	}
	if len(m.item) == 0 {
		return nil, false
	}
	m.stepTop = true
	return m.item[0].row, true
}

func (m *merger) err() error { return m.e }

func (m *merger) close() {
	for _, src := range m.srcs {
		src.close()
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
	if err := q.validate(); err != nil {
		return nil, err
	}
	it := &Iterator{t: t, q: q}
	snap, err := t.snapshot(&it.q, &it.scanned)
	if err != nil {
		return nil, err
	}
	sc := snap.sc
	it.sc, it.expireLT, it.disks = sc, snap.expireLT, snap.disks
	it.m = merger{sc: sc, asc: !q.Descending}
	it.ctx, it.cancel = context.WithCancel(ctx)

	t.stats.Queries.Add(1)
	// Disk sources open outside the lock: seeks touch the filesystem. A
	// worker pool opens and positions them concurrently — each open costs
	// footer and first-block reads that are independent until the merge
	// point — falling back to a serial loop for a single tablet.
	disks := snap.disks
	ro := tablet.ReadOptions{Ctx: it.ctx, PrefetchDepth: DefaultPrefetchDepth}
	dsrcs := make([]*diskSource, len(disks))
	errs := make([]error, len(disks))
	par := min(DefaultQueryParallelism, len(disks))
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
	for _, err := range errs {
		if err != nil {
			// Hand the opened sources to the merger unprimed, so Close
			// closes them.
			for _, src := range dsrcs {
				if src != nil {
					it.m.srcs = append(it.m.srcs, src)
				}
			}
			t.stats.ReadErrors.Add(1)
			it.Close()
			return nil, err
		}
	}
	// Prime the heap in tablet order so ties break deterministically
	// (newer source wins) regardless of open order.
	ord := 0
	for _, src := range dsrcs {
		it.push(src, ord)
		ord++
	}
	for i := range snap.mems {
		it.push(snap.mems[i].memSource(sc, &it.q, snap.expireLT, &it.scanned), ord)
		ord++
	}
	if it.firstErr != nil {
		err := it.firstErr
		it.Close()
		return nil, err
	}
	return it, nil
}

// snapshot is what one read sees of the table (§3.1): the disk tablets
// whose timespans overlap the box, each acquired (release them when done),
// the rows of each filling memtable that the box can return, and the
// sealed memtables, which are read in place.
type snapshot struct {
	sc       *schema.Schema
	expireLT int64 // rows with ts < expireLT are expired (TTL)
	disks    []*diskTablet
	mems     []tabletSpan // rows or mt set
}

// tabletSpan is one tablet of a snapshot, with its timespan and its place
// in the snapshot's oldest-first order: on disk (dt), a filling memtable's
// captured rows (rows), or a sealed memtable (mt).
type tabletSpan struct {
	lo, hi int64
	dt     *diskTablet
	rows   []schema.Row
	mt     *memtable.Memtable
	ord    int
}

// memSource opens a source over a memory span of a snapshot taken for q.
func (s *tabletSpan) memSource(sc *schema.Schema, q *Query, expireLT int64, scanned *int64) rowSource {
	if s.mt != nil {
		ms := newMemScan(sc, s.mt, q, expireLT, scanned)
		return &ms
	}
	return &memSource{rows: s.rows}
}

// snapshot takes one read's view of the table for the box q, counting the
// filling memtable rows it walks into scanned. Those rows are captured
// while holding the lock: the filling trees rebalance under concurrent
// inserts, and §3.1 only promises that a concurrent read returns some,
// all, or none of the racing rows — it must still never corrupt or
// mis-order. A sealed tree takes no more inserts, so it is only named
// here, and walked later without the lock.
func (t *Table) snapshot(q *Query, scanned *int64) (snapshot, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return snapshot{}, ErrTableClosed
	}
	s := snapshot{sc: t.sc, expireLT: expireBefore(t.opts.Clock.Now(), t.ttl)}
	s.disks = t.set.Acquire(func(dt *diskTablet) bool { return dt.rec.MinTs <= q.MaxTs && dt.rec.MaxTs >= q.MinTs })
	addMem := func(f *fillingTablet) {
		if f.mt.Empty() {
			return
		}
		lo, hi := f.mt.Timespan()
		if lo > q.MaxTs || hi < q.MinTs || hi < s.expireLT {
			return
		}
		span := tabletSpan{lo: lo, hi: hi}
		if f.frozen {
			span.mt = f.mt
		} else {
			ms := newMemScan(s.sc, f.mt, q, s.expireLT, scanned)
			for row, ok := ms.next(); ok; row, ok = ms.next() {
				span.rows = append(span.rows, row)
			}
			if span.rows == nil {
				return
			}
		}
		s.mems = append(s.mems, span)
	}
	// Oldest first, since the merge lets the later source win a tied key:
	// a sealed memtable is older than the filling one of its period.
	for _, g := range t.pending {
		for _, f := range g.tablets {
			addMem(f)
		}
	}
	for _, f := range t.filling {
		addMem(f)
	}
	return s, nil
}

func (it *Iterator) push(src rowSource, ord int) {
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
		row, ok := it.m.next()
		if !ok {
			if err := it.m.err(); err != nil {
				it.firstErr = err
				if !errors.Is(err, context.Canceled) {
					// Cancellation surfacing mid-merge (a concurrent
					// Close, a server timeout) is not a storage fault.
					it.t.stats.ReadErrors.Add(1)
				}
			}
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

// Row returns the current row, valid after Next reports true. The row is
// read-only: it may be a memtable's own row, shared with every other
// reader. Its storage belongs to the source it came from and may be
// overwritten by the following Next, so callers that keep a row clone it
// (schema.CloneRow).
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
	for _, src := range it.m.srcs {
		if d, ok := src.(*diskSource); ok {
			it.t.stats.BlocksRead.Add(int64(d.c.BlocksRead))
			it.t.stats.PrefetchHits.Add(int64(d.c.PrefetchHits))
		}
	}
	it.m.close()
	it.t.release(it.disks, (*tabletSet).Release)
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
