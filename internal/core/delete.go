package core

import (
	"fmt"

	"littletable/internal/period"
	"littletable/internal/schema"
	"littletable/internal/tablet"
)

// DeleteWhere implements the bulk delete the paper's conclusion says
// Meraki was investigating "to simplify compliance with regional privacy
// laws" (§7). It removes every row inside the two-dimensional box q for
// which filter also returns true (nil filter = everything in the box),
// returning the number of rows removed.
//
// Age-based TTL expiry remains the cheap path (§3.1); DeleteWhere is the
// targeted one: it first flushes in-memory tablets (holding the insert
// lock, so no writer interleaves), then rewrites each on-disk tablet that
// overlaps the box without the doomed rows — dropping a tablet outright
// when nothing survives — in one publish and descriptor update per tablet.
// Queries running concurrently keep their snapshots via refcounts.
func (t *Table) DeleteWhere(q Query, filter func(schema.Row) bool) (int64, error) {
	q.normalize()
	if q.MinTs > q.MaxTs {
		return 0, fmt.Errorf("%w: MinTs %d > MaxTs %d", ErrBadQuery, q.MinTs, q.MaxTs)
	}
	t.insertMu.Lock()
	defer t.insertMu.Unlock()
	// Rows only in memory must reach disk form so one code path handles
	// all of them.
	if err := t.flushPending(); err != nil {
		return 0, err
	}

	// Write side of maintMu: a bulk delete rewrites arbitrary tablets and
	// must not interleave with in-flight merges of the same span.
	t.maintMu.Lock()
	defer t.maintMu.Unlock()

	sc := t.Schema() // insertMu, held, keeps it current
	victims, err := t.claim(func(dt *diskTablet) bool {
		return dt.rec.MinTs <= q.MaxTs && dt.rec.MaxTs >= q.MinTs
	})
	if err != nil {
		return 0, err
	}
	defer t.release(victims, (*tabletSet).Unclaim)

	var deleted int64
	for _, dt := range victims {
		n, err := t.rewriteWithout(sc, dt, q, filter)
		deleted += n
		if err != nil {
			return deleted, err
		}
	}
	return deleted, nil
}

// rewriteWithout replaces one tablet with a copy lacking the rows that
// match (box ∧ filter). Returns rows removed, which stay removed even if
// the descriptor write fails (then retried as persistDescriptor says).
func (t *Table) rewriteWithout(sc *schema.Schema, dt *diskTablet, q Query, filter func(schema.Row) bool) (int64, error) {
	doomed := func(row schema.Row) bool {
		return q.inBox(sc, row) && (filter == nil || filter(row))
	}

	// First pass: does anything actually match? The box bounds the scan,
	// so a tablet the box only grazes by timespan costs only the blocks
	// its key range can touch.
	var scanned, matched int64
	probe, err := newDiskSource(sc, dt.tab, &q, &scanned, tablet.ReadOptions{})
	if err != nil {
		return 0, err
	}
	for row, ok := probe.next(); ok; row, ok = probe.next() {
		if doomed(row) {
			matched++
		}
	}
	err = probe.err()
	probe.close()
	if err != nil || matched == 0 {
		return 0, err
	}

	t.mu.Lock()
	seq := t.nextSeq
	t.nextSeq++
	now := t.opts.Clock.Now()
	t.mu.Unlock()

	var out *diskTablet
	if kept := dt.rec.RowCount - matched; kept > 0 {
		all := NewQuery()
		src, err := newDiskSource(sc, dt.tab, &all, &scanned, tablet.ReadOptions{})
		if err != nil {
			return 0, err
		}
		rec, tab, err := t.writeTablet(sc, seq, kept, src, func(row schema.Row) bool { return !doomed(row) })
		src.close()
		if err != nil {
			return 0, err
		}
		out = t.newDiskTablet(rec, tab, now, period.For(rec.MinTs, now).Gran)
	}

	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		if out != nil {
			out.tab.Close()
		}
		return 0, ErrTableClosed
	}
	var add []*diskTablet
	if out != nil {
		add = []*diskTablet{out}
	}
	t.set.Publish(add, []*diskTablet{dt})
	t.mu.Unlock()
	return matched, t.persistDescriptor()
}
