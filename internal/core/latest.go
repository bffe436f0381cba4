package core

import (
	"sort"

	"littletable/internal/ltval"
	"littletable/internal/schema"
	"littletable/internal/tablet"
)

// latestQuery is the descending prefix box LatestRow scans with: in
// descending key order with the full non-ts prefix, timestamps are the only
// varying key column, so the first match is the latest.
func latestQuery(prefix []ltval.Value) Query {
	return Query{
		Lower:      prefix,
		LowerInc:   true,
		Upper:      prefix,
		UpperInc:   true,
		MinTs:      minInt64,
		MaxTs:      maxInt64,
		Descending: true,
	}
}

// latestSpan is one tablet (disk or memory) with its timespan, as seen by
// LatestRow. Memory tablets are materialized into bounded row copies at
// snapshot time so the search never races concurrent inserts.
type latestSpan struct {
	lo, hi int64
	dt     *diskTablet
	ms     *memSource
}

// LatestRow finds the most recent row whose primary key begins with prefix
// (§3.4.5). It works backwards through groups of tablets with overlapping
// timespans: because distinct groups cover disjoint time ranges, the first
// group (newest first) containing any matching row contains the latest one.
// Within a group it opens descending cursors on each tablet; if the prefix
// names every key column except the timestamp, the first matching row is
// the answer, otherwise the group's matching rows are scanned for the
// maximum timestamp.
//
// When the prefix includes every non-timestamp key column, Bloom filters
// cannot help (the timestamp completes the key), but tablet last-key/
// timespan metadata still prunes; for point "does key exist" probes the
// uniqueness path uses the filters instead.
func (t *Table) LatestRow(prefix []ltval.Value) (schema.Row, bool, error) {
	if len(prefix) == 0 || len(prefix) > t.Schema().KeyLen() {
		return nil, false, ErrBadQuery
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, false, ErrTableClosed
	}
	sc := t.sc
	ttl := t.ttl
	now := t.opts.Clock.Now()
	q := latestQuery(prefix)
	var scannedMem int64
	var spans []latestSpan
	for _, dt := range t.disk {
		t.acquireLocked(dt)
		spans = append(spans, latestSpan{lo: dt.rec.MinTs, hi: dt.rec.MaxTs, dt: dt})
	}
	addMem := func(f *fillingTablet) {
		if f.mt.Empty() {
			return
		}
		lo, hi := f.mt.Timespan()
		spans = append(spans, latestSpan{lo: lo, hi: hi, ms: collectMemRows(sc, f.mt, &q, &scannedMem)})
	}
	for _, f := range t.filling {
		addMem(f)
	}
	for _, g := range t.pending {
		for _, f := range g.tablets {
			addMem(f)
		}
	}
	t.mu.Unlock()
	t.stats.RowsScanned.Add(scannedMem)
	defer func() {
		for _, s := range spans {
			if s.dt != nil {
				t.release(s.dt)
			}
		}
	}()

	expireLT := expireBefore(now, ttl)
	// Newest first; group spans whose time ranges overlap transitively.
	sort.Slice(spans, func(i, j int) bool { return spans[i].hi > spans[j].hi })
	// The prefix pins the timestamp only if it includes all other key
	// columns AND the ts column itself; "all but ts" means the first
	// matching row in descending key order has the latest ts.
	tsOrderedWithin := len(prefix) == sc.KeyLen()-1

	i := 0
	for i < len(spans) {
		j := i + 1
		groupLo := spans[i].lo
		for j < len(spans) && spans[j].hi >= groupLo {
			if spans[j].lo < groupLo {
				groupLo = spans[j].lo
			}
			j++
		}
		row, ok, err := t.latestInGroup(sc, spans[i:j], prefix, tsOrderedWithin, expireLT)
		if err != nil {
			return nil, false, err
		}
		if ok {
			return row, true, nil
		}
		i = j
	}
	return nil, false, nil
}

// latestInGroup merges descending cursors over one overlapping-timespan
// group and returns the latest (maximum-timestamp) unexpired row whose key
// matches prefix.
func (t *Table) latestInGroup(sc *schema.Schema, group []latestSpan, prefix []ltval.Value, tsOrderedWithin bool, expireLT int64) (schema.Row, bool, error) {
	var scanned int64
	q := latestQuery(prefix)
	m := merger{sc: sc, asc: false}
	var srcs []rowSource
	defer func() {
		for _, s := range srcs {
			s.close()
		}
	}()
	for ord, s := range group {
		var src rowSource
		if s.dt != nil {
			// Latest-row lookups read at most a handful of rows per source;
			// prefetch would load blocks they never reach.
			ds, err := newDiskSource(sc, s.dt.tab, &q, &scanned, tablet.ReadOptions{})
			if err != nil {
				return nil, false, err
			}
			src = ds
		} else {
			s.ms.i = 0 // rewind: materialized at snapshot time
			src = s.ms
		}
		srcs = append(srcs, src)
		if err := m.add(src, ord); err != nil {
			return nil, false, err
		}
	}
	var best schema.Row
	var bestTs int64
	for {
		row, err := m.next()
		if err != nil {
			return nil, false, err
		}
		if row == nil {
			break
		}
		ts := sc.Ts(row)
		if ts < expireLT {
			continue
		}
		if tsOrderedWithin {
			// First match is the latest: rows with this prefix differ only
			// in ts, and we iterate in descending key order.
			t.stats.RowsScanned.Add(scanned)
			return schema.CloneRow(row), true, nil
		}
		if best == nil || ts > bestTs {
			best = schema.CloneRow(row)
			bestTs = ts
		}
	}
	t.stats.RowsScanned.Add(scanned)
	if best != nil {
		return best, true, nil
	}
	return nil, false, nil
}
