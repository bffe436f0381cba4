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
	keyLen := t.Schema().KeyLen()
	if len(prefix) == 0 || len(prefix) > keyLen {
		return nil, false, ErrBadQuery
	}
	// The prefix pins the timestamp only if it includes all other key
	// columns AND the ts column itself; "all but ts" means the first
	// matching row in descending key order has the latest ts, so one
	// unexpired row per memtable source is all the merge can use.
	tsOrderedWithin := len(prefix) == keyLen-1
	q := latestQuery(prefix)
	if tsOrderedWithin {
		q.Limit = 1
	}
	var scannedMem int64
	snap, err := t.snapshot(&q, &scannedMem)
	if err != nil {
		return nil, false, err
	}
	t.stats.RowsScanned.Add(scannedMem)
	defer t.release(snap.disks, (*tabletSet).Release)
	sc := snap.sc
	spans := make([]tabletSpan, 0, len(snap.disks)+len(snap.mems))
	for _, dt := range snap.disks {
		spans = append(spans, tabletSpan{lo: dt.rec.MinTs, hi: dt.rec.MaxTs, dt: dt})
	}
	spans = append(spans, snap.mems...)
	for i := range spans {
		spans[i].ord = i // the merge's tie order: age, not timespan
	}

	// Newest first; group spans whose time ranges overlap transitively.
	sort.Slice(spans, func(i, j int) bool { return spans[i].hi > spans[j].hi })

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
		row, ok, err := t.latestInGroup(sc, spans[i:j], &q, tsOrderedWithin, snap.expireLT)
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
// group and returns the latest (maximum-timestamp) unexpired row inside
// q, LatestRow's prefix box.
func (t *Table) latestInGroup(sc *schema.Schema, group []tabletSpan, q *Query, tsOrderedWithin bool, expireLT int64) (schema.Row, bool, error) {
	var scanned int64
	m := merger{sc: sc, asc: false}
	defer m.close()
	for _, s := range group {
		var src rowSource
		if s.dt != nil {
			// Latest-row lookups read at most a handful of rows per source;
			// prefetch would load blocks they never reach.
			ds, err := newDiskSource(sc, s.dt.tab, q, &scanned, tablet.ReadOptions{})
			if err != nil {
				return nil, false, err
			}
			src = ds
		} else {
			src = s.memSource(sc, q, expireLT, &scanned)
		}
		if err := m.add(src, s.ord); err != nil {
			return nil, false, err
		}
	}
	var best schema.Row
	var bestTs int64
	for {
		row, ok := m.next()
		if !ok {
			if err := m.err(); err != nil {
				return nil, false, err
			}
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
