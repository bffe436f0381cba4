package core

import (
	"errors"
	"sort"

	"littletable/internal/clock"
	"littletable/internal/period"
)

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
// counted in Stats. A failed descriptor write loses nothing either: the
// committed tablets stay in the table and on disk, the error is returned
// and counted (Stats.CommitFailures), and the next persist — Tick's retry
// or a later commit — makes them durable.
func (t *Table) FlushStep() (bool, error) {
	return t.flushStep(false)
}

// flushStep is FlushStep for either kind of caller. A failed write sets
// the retry schedule (retryBackoff on Options.Clock) that scheduled
// callers honour: while it holds, a scheduled step claims nothing. A
// failed descriptor write after a written group keeps persistDescriptor's
// own schedule.
func (t *Table) flushStep(scheduled bool) (bool, error) {
	// Claim the oldest queued group and reserve its sequence numbers while
	// holding the lock; write files after releasing it so inserts and
	// queries proceed during the I/O.
	now := t.opts.Clock.Now()
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return false, ErrTableClosed
	}
	if scheduled && t.flushFails > 0 && now < t.flushRetryAt {
		t.mu.Unlock()
		return false, nil
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
	t.mu.Unlock()

	disks, werr := t.writeGroup(g, now)

	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		t.deleteTablets(disks)
		return false, ErrTableClosed
	}
	if werr != nil {
		// Nothing lost: requeue the group for a later attempt, keeping its
		// reserved sequence numbers for the retry, and wake waiters so a
		// draining caller re-claims it rather than sleeping. The schedule
		// is set in the same critical section, so no scheduled flusher
		// claims the requeued group before it, and it is counted after:
		// whoever sees the failure also sees its retry time.
		g.state = gsQueued
		t.flushFails++
		d := retryBackoff(t.flushFails)
		t.flushRetryAt = t.opts.Clock.Now() + d
		t.stats.FlushFailures.Add(1)
		t.opts.Logf("littletable: table %s: flush failed (%d consecutive): %v; retrying in %ds",
			t.name, t.flushFails, werr, d/clock.Second)
		t.flushCond.Broadcast()
		t.mu.Unlock()
		return false, werr
	}
	g.state = gsWritten
	g.disks = disks
	// Counted under mu before the commit can dequeue the group, so a
	// reader that sees the queue empty also sees every worker's group and
	// the recovery it ended.
	if scheduled && t.flushKick != nil {
		t.stats.AsyncFlushes.Add(1)
	}
	if t.flushFails > 0 {
		t.flushFails = 0
		t.stats.FaultRecoveries.Add(1)
	}
	committed := t.commitWrittenLocked()
	t.flushCond.Broadcast()
	t.mu.Unlock()
	if !committed {
		return true, nil
	}
	return true, t.persistDescriptor()
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
		rec, tab, err := t.writeTablet(ft.mt.Schema(), g.seqs[i], int64(ft.mt.Len()), treeSource{ft.mt.Cursor(true)}, nil)
		if err != nil {
			t.deleteTablets(newDisks)
			return nil, err
		}
		newDisks = append(newDisks, t.newDiskTablet(rec, tab, now, ft.per.Gran))
	}
	return newDisks, nil
}

// commitWrittenLocked publishes the longest fully-written prefix of the
// pending queue in one step and reports whether the tablet set changed;
// the caller persists it once it has released t.mu. Caller holds t.mu.
//
// Commit strictly follows seal order: a group whose files are on disk but
// whose predecessor is still writing stays uncommitted. Rows sealed later
// were inserted later (sealing clears lastInsert, so no dependency edge
// can point backward across a seal), so the descriptor always names a
// prefix of insertion order — the §3.1 guarantee.
func (t *Table) commitWrittenLocked() bool {
	var disks []*diskTablet
	for len(t.pending) > 0 && t.pending[0].state == gsWritten {
		g := t.pending[0]
		t.pending = t.pending[1:]
		t.sealedBytes -= g.bytes
		disks = append(disks, g.disks...)
		g.disks = nil
	}
	if len(disks) == 0 {
		return false
	}
	t.set.Publish(disks, nil)
	for _, dt := range disks {
		t.stats.TabletsFlushed.Add(1)
		t.stats.BytesFlushed.Add(dt.rec.Bytes)
	}
	// Freshly committed tablets are merge candidates (after MergeDelay);
	// let an idle maintenance worker take a look.
	ring(t.maintKick)
	return true
}

// drainFlush is the one flush loop: it claims, writes and commits queued
// groups until done (called with t.mu held; nil means never) reports true.
// Scheduled callers — Tick and the flush workers — honour the retry
// schedule and return once nothing is claimable. Explicit callers —
// FlushAll, FlushBefore and an inserter over the backlog cap — try now,
// and wait on flushCond while every queued group is in flight with another
// flusher rather than re-writing it. Both return the first error.
func (t *Table) drainFlush(scheduled bool, done func() bool) error {
	for {
		ok, err := t.flushStep(scheduled)
		if err != nil {
			return err
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			return ErrTableClosed
		}
		if (done != nil && done()) || (!ok && scheduled) {
			t.mu.Unlock()
			return nil
		}
		if !ok {
			t.flushCond.Wait()
		}
		t.mu.Unlock()
	}
}

// flushPass is one scheduled flush pass: a flush worker's on each ring,
// or Tick's own in serial mode.
func (t *Table) flushPass() error {
	return t.drainFlush(true, nil)
}

// drainPending blocks until the pending queue is empty and the descriptor
// names every committed group: a flush worker may have committed the last
// group without having persisted it yet, or failed to.
func (t *Table) drainPending() error {
	if err := t.drainFlush(false, func() bool { return len(t.pending) == 0 }); err != nil {
		return err
	}
	return t.persistDescriptor()
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
// of filling tablets (§3.4.1's 10-minute bound on data loss), a due retry
// of a failed descriptor write, flushing, TTL expiry (§3.3), and one merge
// round (§3.4.1–3.4.2). The server calls it periodically; tests call it
// with a fake clock.
//
// Tick runs the flush and maintenance passes inline, returning their
// errors, unless the table has worker pools (Options.FlushWorkers,
// Options.MergeWorkers): then it rings their doorbells, and the workers
// run the same passes in the background — maintenance in parallel across
// disjoint periods — logging and counting failures (FlushFailures,
// MergeFailures and friends) instead of returning them. Either way a
// failed flush or merge is retried on the same engine-clock backoff
// schedule, on the first Tick after it expires; so is a failed descriptor
// write, which Tick retries inline in both modes.
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
	retry := t.set.RetryDue(now)
	t.mu.Unlock()
	var err error
	if retry {
		err = t.persistDescriptor()
	}
	err = errors.Join(err, runPass(t.flushKick, t.flushPass))
	if errors.Is(err, ErrTableClosed) {
		return err
	}
	return errors.Join(err, runPass(t.maintKick, t.tickMaintPass))
}
