package core

import (
	"errors"

	"littletable/internal/clock"
	"littletable/internal/period"
	"littletable/internal/schema"
	"littletable/internal/tablet"
)

// MergeStep runs one round of the merge policy (§3.4.1–§3.4.2, appendix):
//
//   - tablets are ordered by their timespans' lower bounds;
//   - only tablets within the same time period are merge candidates;
//   - the oldest adjacent pair (ti, ti+1) with |ti| <= 2|ti+1| seeds the
//     merge, extended with newer adjacent tablets up to MaxTabletSize;
//   - a tablet must be at least MergeDelay old, and a period that has just
//     rolled over into a coarser granularity waits an extra pseudorandom
//     fraction of the new period length, spreading merge load across
//     tables.
//
// It reports whether a merge was performed. The appendix proves this policy
// leaves O(log T) tablets and rewrites each row O(log T) times.
//
// A failed merge is not fatal: the inputs stay live, inserts and queries
// continue, and the next MergeStep after a capped exponential backoff
// retries. Failures, retries, and the eventual recovery are counted in
// Stats. A merge whose descriptor write fails is done all the same: it
// reports true with the error, and the write is retried on its own
// schedule (see persistDescriptor).
func (t *Table) MergeStep() (bool, error) {
	ok, err := t.mergeStep()

	t.mu.Lock()
	switch {
	case !ok && err != nil && !errors.Is(err, ErrTableClosed):
		if t.mergeFails > 0 {
			t.stats.MergeRetries.Add(1)
		}
		t.mergeFails++
		t.stats.MergeFailures.Add(1)
		d := retryBackoff(t.mergeFails)
		t.mergeRetryAt = t.opts.Clock.Now() + d
		t.opts.Logf("littletable: table %s: merge failed (%d consecutive): %v; retrying in %ds",
			t.name, t.mergeFails, err, d/clock.Second)
		// The backoff changed the schedule; MaintainUntilQuiet waiters
		// must re-evaluate or they would wait out the backoff window.
		t.maintCond.Broadcast()
	case ok && t.mergeFails > 0:
		t.stats.MergeRetries.Add(1)
		t.stats.FaultRecoveries.Add(1)
		t.mergeFails = 0
		t.mergeRetryAt = 0
	}
	t.mu.Unlock()
	return ok, err
}

// mergeStep claims one merge (see claimMergeLocked for the schedule:
// per-period exclusivity, priority aging, retry backoff) and runs it.
// Merges take the read side of maintMu, so merges on disjoint periods
// overlap while DeleteWhere and tiering still exclude them wholesale.
func (t *Table) mergeStep() (bool, error) {
	t.maintMu.RLock()
	defer t.maintMu.RUnlock()

	now := t.opts.Clock.Now()
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return false, ErrTableClosed
	}
	c := t.claimMergeLocked(now, false)
	if c == nil {
		t.mu.Unlock()
		return false, nil
	}
	sc := t.sc
	ttl := t.ttl
	t.mu.Unlock()

	t.stats.MergesInFlight.Add(1)
	out, err := t.mergeTablets(sc, c.inputs, c.seq, expireBefore(now, ttl), now)
	t.stats.MergesInFlight.Add(-1)

	t.mu.Lock()
	delete(t.merging, c.per)
	if err != nil || t.closed {
		gone := t.set.Unclaim(c.inputs)
		t.maintCond.Broadcast()
		t.mu.Unlock()
		t.deleteTablets(gone)
		if err == nil {
			err = ErrTableClosed
		}
		return false, err
	}
	t.set.Publish([]*diskTablet{out}, c.inputs)
	gone := t.set.Unclaim(c.inputs)
	// Count the merge before the broadcast below: the moment waiters wake
	// and observe "no work left", the counters must already reflect this
	// merge, or a MaintainUntilQuiet caller can read Stats before the
	// worker finishes persisting and see the merge it just waited for
	// missing.
	t.stats.Merges.Add(1)
	t.stats.BytesMerged.Add(out.rec.Bytes)
	t.stats.RowsRewritten.Add(out.rec.RowCount)
	// The output tablet may itself seed the period's next merge; tell an
	// idle worker, and wake MaintainUntilQuiet waiters either way.
	ring(t.maintKick)
	t.maintCond.Broadcast()
	t.mu.Unlock()
	t.deleteTablets(gone)
	return true, t.persistDescriptor()
}

func (t *Table) pickWithinGroupLocked(group []*diskTablet, p period.Period, now int64) []*diskTablet {
	if len(group) < 2 {
		return nil
	}
	// Rollover delay (§3.4.2): periods coarser than 4h gained their current
	// granularity when they ended; delay merging by a pseudorandom fraction
	// of the period length, seeded per (table, period).
	if p.Gran != period.FourHour {
		frac := period.MergeDelayFraction(mergeSeed(t.name, p.Start))
		if now < p.End+int64(frac*float64(p.Gran.Length())) {
			return nil
		}
	}
	eligible := func(dt *diskTablet) bool {
		return !dt.claimed() && now-dt.addedAt >= t.opts.MergeDelay
	}
	for i := 0; i+1 < len(group); i++ {
		a, b := group[i], group[i+1]
		if !eligible(a) || !eligible(b) {
			continue
		}
		if a.rec.Bytes > 2*b.rec.Bytes {
			continue
		}
		total := a.rec.Bytes + b.rec.Bytes
		if total > t.opts.MaxTabletSize {
			continue
		}
		ins := []*diskTablet{a, b}
		// "It includes in this merge any newer tablets adjacent to this
		// pair, up to a maximum tablet size" (§3.4.1).
		for k := i + 2; k < len(group); k++ {
			c := group[k]
			if !eligible(c) || total+c.rec.Bytes > t.opts.MaxTabletSize {
				break
			}
			ins = append(ins, c)
			total += c.rec.Bytes
		}
		return ins
	}
	return nil
}

// mergeSeed hashes (table, period start) for the rollover delay fraction.
func mergeSeed(name string, periodStart int64) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range name {
		h ^= uint64(c)
		h *= 1099511628211
	}
	h ^= uint64(periodStart)
	h *= 1099511628211
	return h
}

// mergeTablets merge-sorts the inputs into one new tablet in a single pass
// (§3.4.1), translating rows to the current schema and dropping rows whose
// timestamps have expired.
func (t *Table) mergeTablets(sc *schema.Schema, inputs []*diskTablet, seq uint64, expireLT int64, now int64) (*diskTablet, error) {
	var rows int64 // an upper bound: duplicates and expired rows drop out
	var scanned int64
	q := NewQuery()
	m := merger{sc: sc, asc: true}
	defer m.close()
	// Merges read every block of every input sequentially, the best case for
	// prefetch; no context, since a merge runs to completion or error.
	ro := tablet.ReadOptions{PrefetchDepth: DefaultPrefetchDepth}
	for ord, dt := range inputs {
		rows += dt.tab.RowCount()
		src, err := newDiskSource(sc, dt.tab, &q, &scanned, ro)
		if err == nil {
			err = m.add(src, ord)
		}
		if err != nil {
			return nil, err
		}
	}
	// A row already expired is not rewritten: the merge reclaims it.
	rec, tab, err := t.writeTablet(sc, seq, rows, &m, func(row schema.Row) bool { return sc.Ts(row) >= expireLT })
	if err != nil {
		return nil, err
	}
	// If everything expired, the merge still writes an empty tablet so the
	// inputs can be dropped; the TTL reaper deletes it promptly. That is
	// simpler than a special-case descriptor path. The empty tablet keeps
	// the inputs' span so ordering invariants hold.
	if rec.RowCount == 0 {
		rec.MinTs, rec.MaxTs = inputs[0].rec.MinTs, inputs[0].rec.MaxTs
	}
	return t.newDiskTablet(rec, tab, now, period.For(rec.MinTs, now).Gran), nil
}

// MergeUntilStable runs merge rounds until none applies, returning the
// number performed. Benchmarks for the appendix's logarithmic bounds and
// Figure 3 use it.
func (t *Table) MergeUntilStable() (int, error) {
	return t.drainMaint(false, 0)
}
