package core

import (
	"fmt"
	"path/filepath"

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
// when nothing survives — in one atomic descriptor update per tablet.
// Queries running concurrently keep their snapshots via refcounts.
func (t *Table) DeleteWhere(q Query, filter func(schema.Row) bool) (int64, error) {
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

	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return 0, ErrTableClosed
	}
	sc := t.sc
	var victims []*diskTablet
	for _, dt := range t.disk {
		if dt.busy {
			continue
		}
		if dt.rec.MinTs <= q.MaxTs && dt.rec.MaxTs >= q.MinTs {
			dt.busy = true
			t.acquireLocked(dt)
			victims = append(victims, dt)
		}
	}
	t.mu.Unlock()

	var deleted int64
	for _, dt := range victims {
		n, err := t.rewriteWithout(sc, dt, q, filter)
		if err != nil {
			// Release remaining victims before bailing.
			t.mu.Lock()
			for _, v := range victims {
				v.busy = false
			}
			t.mu.Unlock()
			for _, v := range victims {
				t.release(v)
			}
			return deleted, err
		}
		deleted += n
	}
	t.mu.Lock()
	for _, v := range victims {
		v.busy = false
	}
	t.mu.Unlock()
	for _, v := range victims {
		t.release(v)
	}
	return deleted, nil
}

// rewriteWithout replaces one tablet with a copy lacking the rows that
// match (box ∧ filter). Returns rows removed.
func (t *Table) rewriteWithout(sc *schema.Schema, dt *diskTablet, q Query, filter func(schema.Row) bool) (int64, error) {
	inBox := func(row schema.Row) bool {
		ts := sc.Ts(row)
		if ts < q.MinTs || ts > q.MaxTs {
			return false
		}
		if q.Lower != nil {
			c := sc.CompareRowToKey(row, q.Lower)
			if c < 0 || (c == 0 && !q.LowerInc) {
				return false
			}
		}
		if q.Upper != nil {
			c := sc.CompareRowToKey(row, q.Upper)
			if c > 0 || (c == 0 && !q.UpperInc) {
				return false
			}
		}
		return filter == nil || filter(row)
	}

	// First pass: does anything actually match? Avoid rewriting tablets
	// the box only grazes by timespan.
	tabSc := dt.tab.Schema()
	probe := dt.tab.Cursor(true)
	any := false
	var kept int64
	for probe.Next() {
		if inBox(sc.Translate(tabSc, probe.Row())) {
			any = true
		} else {
			kept++
		}
	}
	if err := probe.Err(); err != nil {
		return 0, err
	}
	if !any {
		return 0, nil
	}

	t.mu.Lock()
	seq := t.nextSeq
	t.nextSeq++
	now := t.opts.Clock.Now()
	t.mu.Unlock()

	var removed int64
	var out *diskTablet
	if kept > 0 {
		path := filepath.Join(t.dir, tabletFileName(seq))
		w, err := tablet.Create(path, sc, t.opts.tabletWriter(t.opts.FS, kept))
		if err != nil {
			return 0, err
		}
		c := dt.tab.Cursor(true)
		for c.Next() {
			row := sc.Translate(tabSc, c.Row())
			if inBox(row) {
				removed++
				continue
			}
			if err := w.Append(row); err != nil {
				_ = w.Abort() // best-effort cleanup; the original error wins
				return 0, err
			}
		}
		if err := c.Err(); err != nil {
			_ = w.Abort() // best-effort cleanup; the original error wins
			return 0, err
		}
		info, err := w.Close()
		if err != nil {
			return 0, err
		}
		t.stats.addEncode(info.Enc)
		tab, err := tablet.OpenFS(t.opts.FS, path)
		if err != nil {
			_ = t.opts.FS.Remove(path)
			return 0, fmt.Errorf("core: reopen rewritten tablet: %w", err)
		}
		t.attachCache(tab)
		out = &diskTablet{
			rec: tabletRecord{
				File:     filepath.Base(path),
				Seq:      seq,
				RowCount: info.RowCount,
				MinTs:    info.MinTs,
				MaxTs:    info.MaxTs,
				Bytes:    info.Bytes,
			},
			tab:       tab,
			path:      path,
			refs:      1,
			addedAt:   now,
			wroteGran: period.For(info.MinTs, now).Gran,
		}
	} else {
		removed = dt.rec.RowCount
	}

	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		if out != nil {
			out.tab.Close()
		}
		return 0, ErrTableClosed
	}
	t.dropLocked(dt)
	if out != nil {
		t.disk = append(t.disk, out)
		t.sortDiskLocked()
	}
	err := t.writeDescriptorLocked()
	t.mu.Unlock()
	if err != nil {
		return 0, fmt.Errorf("core: descriptor update after delete: %w", err)
	}
	return removed, nil
}
