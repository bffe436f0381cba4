package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"

	"littletable/internal/period"
	"littletable/internal/tablet"
)

// tickFlushRetries bounds how many consecutive flush errors one Tick
// absorbs before moving on to TTL expiry and merging; before this bound a
// single bad flush starved the rest of maintenance until the next tick.
const tickFlushRetries = 3

// FlushStep writes the oldest unclaimed pending flush group to disk — one
// on-disk tablet per frozen in-memory tablet — and publishes every written
// group at the head of the seal order in a single atomic descriptor update
// (§3.4.3). It reports whether it wrote a group. Safe to call concurrently
// with inserts, queries, and other FlushStep calls: each call claims its
// own group, files are written without table locks held, and the commit
// stage only ever publishes a prefix of the seal sequence, so the §3.1
// prefix-durability guarantee holds under concurrent flushing.
//
// A failed write loses nothing: the group returns to the queue and a later
// call retries it. Consecutive failures and the eventual recovery are
// counted in Stats. A failed descriptor commit DOES lose the affected
// rows, exactly as in the serial engine; the loss is counted
// (Stats.CommitFailures, Stats.RowsLost) and returned as ErrRowsLost.
func (t *Table) FlushStep() (bool, error) {
	ok, err := t.flushStep()
	t.mu.Lock()
	if err != nil && !errors.Is(err, ErrTableClosed) {
		t.flushFails++
		t.stats.FlushFailures.Add(1)
	} else if ok && t.flushFails > 0 {
		t.flushFails = 0
		t.stats.FaultRecoveries.Add(1)
	}
	t.mu.Unlock()
	return ok, err
}

func (t *Table) flushStep() (bool, error) {
	// Claim the oldest queued group and reserve its sequence numbers while
	// holding the lock; write files after releasing it so inserts and
	// queries proceed during the I/O.
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return false, ErrTableClosed
	}
	var g *flushGroup
	for _, cand := range t.pending {
		if cand.state == gsQueued {
			g = cand
			break
		}
	}
	if g == nil {
		t.mu.Unlock()
		return false, nil
	}
	g.state = gsWriting
	// Sequence numbers are reserved once, at first claim: claims follow
	// seal order, so Seq stays monotone in seal (= insertion) order, the
	// property descriptor.go's sort and diskLess tie-breaking rely on. A
	// retry after a failed write reuses the original reservation — those
	// seqs were never published.
	if g.seqs == nil {
		g.seqs = make([]uint64, len(g.tablets))
		for i := range g.tablets {
			g.seqs[i] = t.nextSeq
			t.nextSeq++
		}
	}
	now := t.opts.Clock.Now()
	t.mu.Unlock()

	disks, werr := t.writeGroup(g, now)

	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		t.abortDisks(disks)
		return false, ErrTableClosed
	}
	if werr != nil {
		// Nothing lost: requeue the group for a later attempt, keeping its
		// reserved sequence numbers for the retry, and wake waiters so a
		// draining caller re-claims it rather than sleeping.
		g.state = gsQueued
		t.flushCond.Broadcast()
		t.mu.Unlock()
		return false, werr
	}
	g.state = gsWritten
	g.disks = disks
	err := t.commitWrittenLocked()
	t.flushCond.Broadcast()
	t.mu.Unlock()
	return err == nil, err
}

// writeGroup writes one on-disk tablet per non-empty frozen tablet in g and
// reopens each for reading. No table locks are held during the I/O. On
// error it cleans up its own partial output and returns nil tablets.
func (t *Table) writeGroup(g *flushGroup, now int64) ([]*diskTablet, error) {
	newDisks := make([]*diskTablet, 0, len(g.tablets))
	for i, ft := range g.tablets {
		if ft.mt.Empty() {
			continue
		}
		path := filepath.Join(t.dir, tabletFileName(g.seqs[i]))
		w, err := tablet.Create(path, ft.mt.Schema(), tablet.WriterOptions{
			BlockSize:          t.opts.BlockSize,
			DisableCompression: t.opts.DisableCompression,
			DisableBloom:       t.opts.DisableBloom,
			Encoding:           t.opts.BlockEncoding,
			Sync:               t.opts.SyncWrites,
			FS:                 t.opts.FS,
		})
		if err != nil {
			t.abortDisks(newDisks)
			return nil, err
		}
		c := ft.mt.Cursor(true)
		for c.Next() {
			if err := w.Append(c.Row()); err != nil {
				_ = w.Abort() // best-effort cleanup; the original error wins
				t.abortDisks(newDisks)
				return nil, err
			}
		}
		info, err := w.Close()
		if err != nil {
			t.abortDisks(newDisks)
			return nil, err
		}
		t.stats.addEncode(info.Enc)
		tab, err := tablet.OpenFS(t.opts.FS, path)
		if err != nil {
			t.opts.FS.Remove(path)
			t.abortDisks(newDisks)
			return nil, fmt.Errorf("core: reopen flushed tablet: %w", err)
		}
		t.attachCache(tab)
		newDisks = append(newDisks, &diskTablet{
			rec: tabletRecord{
				File:     filepath.Base(path),
				Seq:      g.seqs[i],
				RowCount: info.RowCount,
				MinTs:    info.MinTs,
				MaxTs:    info.MaxTs,
				Bytes:    info.Bytes,
			},
			tab:       tab,
			path:      path,
			refs:      1,
			addedAt:   now,
			wroteGran: ft.per.Gran,
		})
	}
	return newDisks, nil
}

// commitWrittenLocked publishes the longest fully-written prefix of the
// pending queue in one atomic descriptor update. Caller holds t.mu.
//
// Commit strictly follows seal order: a group whose files are on disk but
// whose predecessor is still writing stays uncommitted. Rows sealed later
// were inserted later (sealing clears lastInsert, so no dependency edge
// can point backward across a seal), so the descriptor always names a
// prefix of insertion order — the §3.1 guarantee.
func (t *Table) commitWrittenLocked() error {
	var committed []*flushGroup
	for len(t.pending) > 0 && t.pending[0].state == gsWritten {
		g := t.pending[0]
		t.pending = t.pending[1:]
		t.disk = append(t.disk, g.disks...)
		t.sealedBytes -= g.bytes
		committed = append(committed, g)
	}
	if len(committed) == 0 {
		return nil
	}
	t.sortDiskLocked()
	if err := t.writeDescriptorLocked(); err != nil {
		// Roll back: the files exist but are not durable; drop them. The
		// rows are lost from memory; count the loss and surface the error
		// loudly (callers on the synchronous path return it directly; the
		// background workers latch it for the next foreground caller).
		var lost int64
		for _, g := range committed {
			for _, f := range g.tablets {
				lost += int64(f.mt.Len())
			}
			for _, dt := range g.disks {
				t.dropLocked(dt)
			}
			g.disks = nil
		}
		t.stats.CommitFailures.Add(1)
		t.stats.RowsLost.Add(lost)
		return fmt.Errorf("%w: %d rows: %w", ErrRowsLost, lost, err)
	}
	for _, g := range committed {
		for _, dt := range g.disks {
			t.stats.TabletsFlushed.Add(1)
			t.stats.BytesFlushed.Add(dt.rec.Bytes)
		}
		g.disks = nil
	}
	// Freshly committed tablets are merge candidates (after MergeDelay);
	// let an idle maintenance worker take a look.
	t.kickMaintLocked()
	return nil
}

// abortDisks closes and deletes tablets written by a flush that could not
// be published; not being in the descriptor, they were never durable, and
// removing them now spares the next open an orphan sweep.
func (t *Table) abortDisks(disks []*diskTablet) {
	for _, dt := range disks {
		dt.tab.Close()
		_ = t.opts.FS.Remove(dt.path)
	}
}

// dropLocked removes dt from the live list (caller updates descriptor) and
// arranges deletion once readers drain. Caller holds t.mu.
func (t *Table) dropLocked(dt *diskTablet) {
	for i, d := range t.disk {
		if d == dt {
			t.disk = append(t.disk[:i], t.disk[i+1:]...)
			break
		}
	}
	dt.dropped = true
	dt.refs--
	if dt.refs == 0 {
		dt.tab.Close()
		_ = t.opts.FS.Remove(dt.path)
	}
}

// drainPending blocks until every group currently in the pending queue has
// committed. Groups claimed by concurrent flushers are waited on via the
// commit broadcast rather than re-written.
func (t *Table) drainPending() error {
	for {
		ok, err := t.FlushStep()
		if err != nil {
			return err
		}
		if ok {
			continue
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			return ErrTableClosed
		}
		if len(t.pending) == 0 {
			// Drained — but a group claimed by a background worker may have
			// been lost to a failed commit; report that instead of success.
			err := t.asyncErr
			t.asyncErr = nil
			t.mu.Unlock()
			return err
		}
		// Everything left is in flight with another flusher; wait for a
		// state change and re-check.
		t.flushCond.Wait()
		t.mu.Unlock()
	}
}

// FlushAll seals every filling tablet and drains the pending queue. Used
// at orderly shutdown and by tests; the durability model never requires it.
func (t *Table) FlushAll() error {
	t.insertMu.Lock()
	defer t.insertMu.Unlock()
	return t.flushPending()
}

// FlushBefore is the command §4.1.2 proposes: it "flushes to disk all
// tablets with timestamps before a given value", so aggregators can know
// their source rows are durable instead of assuming anything older than
// 20 minutes has reached disk. Flush-dependency closures may pull newer
// tablets along; over-flushing is always safe.
func (t *Table) FlushBefore(ts int64) error {
	t.insertMu.Lock()
	defer t.insertMu.Unlock()
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrTableClosed
	}
	t.sealFillingLocked(func(ft *fillingTablet) bool {
		if ft.mt.Empty() {
			return false
		}
		lo, _ := ft.mt.Timespan()
		return lo < ts
	})
	t.mu.Unlock()
	return t.drainPending()
}

// periodBefore orders periods oldest first; End breaks the tie between a
// 4-hour period and the day that starts with it.
func periodBefore(a, b period.Period) bool {
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	return a.End < b.End
}

// sealFillingLocked seals every filling tablet that want accepts (nil =
// all), oldest period first. t.filling is a map, and sealing in its
// iteration order would let tablet sequence numbers and flush grouping
// differ between two runs of the same inserts whenever rows straddle
// periods. Caller holds t.mu.
func (t *Table) sealFillingLocked(want func(*fillingTablet) bool) {
	var fts []*fillingTablet // usually empty on a Tick: nothing has aged out
	for _, ft := range t.filling {
		if want == nil || want(ft) {
			fts = append(fts, ft)
		}
	}
	if len(fts) > 1 {
		sort.Slice(fts, func(i, j int) bool { return periodBefore(fts[i].per, fts[j].per) })
	}
	for _, ft := range fts {
		t.sealLocked(ft) // a no-op for one an earlier seal's closure took
	}
}

// flushPending seals all filling tablets and drains pending groups.
// Callers hold insertMu.
func (t *Table) flushPending() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrTableClosed
	}
	t.sealFillingLocked(nil)
	t.mu.Unlock()
	return t.drainPending()
}

// Tick performs one round of time-driven maintenance: age-based sealing
// of filling tablets (§3.4.1's 10-minute bound on data loss), flushing,
// one merge round (§3.4.1–3.4.2), and TTL expiry (§3.3). The server calls
// it periodically; tests call it with a fake clock.
//
// With flush workers the tick only rings their doorbell; without them it
// drains every eligible sealed group itself, retrying a bounded number of
// times on error so one bad flush neither abandons the rest of the
// backlog until the next tick nor starves TTL expiry and merging.
//
// With merge workers (Options.MergeWorkers > 0), merging and expiry are
// likewise reduced to a doorbell ring: the maintenance workers drain
// them in the background, in parallel across disjoint periods. Their
// failures do not surface through Tick's return value — they are logged,
// counted (MergeFailures and friends), and retried on the backoff
// schedule, exactly like background flush failures.
func (t *Table) Tick() error {
	now := t.opts.Clock.Now()
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrTableClosed
	}
	t.sealFillingLocked(func(ft *fillingTablet) bool {
		return !ft.mt.Empty() && now-ft.mt.CreatedAt() >= t.opts.FlushAge
	})
	hasPending := len(t.pending) > 0
	async := t.flushKick != nil
	if hasPending && async {
		t.kickFlushLocked()
	}
	t.mu.Unlock()

	var flushErr error
	if hasPending && !async {
		retries := 0
		for {
			ok, err := t.FlushStep()
			if err != nil {
				if errors.Is(err, ErrTableClosed) {
					return err
				}
				flushErr = err
				if retries++; retries >= tickFlushRetries {
					break
				}
				continue
			}
			if !ok {
				break
			}
		}
	}
	// Row loss latched by a background flush surfaces here too, so a
	// server that only ever Ticks still observes it.
	flushErr = errors.Join(flushErr, t.takeAsyncErr())
	if t.maintKick != nil {
		t.mu.Lock()
		t.kickMaintLocked()
		t.mu.Unlock()
		return flushErr
	}
	if err := t.expireTTL(now); err != nil {
		return errors.Join(flushErr, err)
	}
	_, err := t.MergeStep()
	return errors.Join(flushErr, err)
}
