package core

// expireTTL reclaims disk space by removing from the descriptor, and then
// deleting, any tablet whose rows have all passed their TTL (§3.3); a
// failed descriptor write leaves the files until a retry succeeds. Rows
// that expire before their tablet does are filtered from query results by
// the iterator. At most one expiry round runs at a time (the expiring
// flag); tablets being merged are skipped — the merge itself drops their
// expired rows, and its output becomes reclaimable on a later round.
func (t *Table) expireTTL(now int64) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrTableClosed
	}
	doomed := t.expiredLocked(now)
	if len(doomed) == 0 {
		t.mu.Unlock()
		return nil
	}
	t.expiring = true
	if t.expireWaiting {
		t.stats.ExpiryWaitNs.Add((t.opts.Clock.Now() - t.expireWaitSince) * 1000)
		t.expireWaiting = false
	}
	t.stats.ExpiriesInFlight.Add(1)
	t.set.Publish(nil, doomed)
	t.stats.TabletsExpired.Add(int64(len(doomed)))
	t.stats.ExpiryRuns.Add(1)
	t.mu.Unlock()
	// The expiring flag keeps further rounds out while the persist runs.
	err := t.persistDescriptor()
	t.mu.Lock()
	t.expiring = false
	t.stats.ExpiriesInFlight.Add(-1)
	t.maintCond.Broadcast()
	t.mu.Unlock()
	return err
}

// ExpireNow runs TTL reclamation immediately; tests and the ltbench
// harness use it, while the server relies on Tick.
func (t *Table) ExpireNow() error {
	return t.expireTTL(t.opts.Clock.Now())
}
