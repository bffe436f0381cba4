package core

import "time"

// expireTTL reclaims disk space by removing from the descriptor, and then
// deleting, any tablet whose rows have all passed their TTL (§3.3). Rows
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
	if t.ttl <= 0 || t.expiring || t.maintHold > 0 {
		t.mu.Unlock()
		return nil
	}
	cutoff := now - t.ttl
	var doomed []*diskTablet
	for _, dt := range t.disk {
		if !dt.busy && dt.rec.MaxTs < cutoff {
			doomed = append(doomed, dt)
		}
	}
	if len(doomed) == 0 {
		t.expireWaitSince = 0
		t.mu.Unlock()
		return nil
	}
	t.expiring = true
	if t.expireWaitSince != 0 {
		t.stats.ExpiryWaitNs.Add(time.Now().UnixNano() - t.expireWaitSince)
		t.expireWaitSince = 0
	}
	t.stats.ExpiriesInFlight.Add(1)
	for _, dt := range doomed {
		// Hold a ref across the descriptor persist below: the files must
		// outlive any on-disk descriptor that still names them, so deletion
		// (at release) strictly follows the persist.
		t.acquireLocked(dt)
		t.dropLocked(dt)
	}
	t.bumpDescGenLocked()
	t.mu.Unlock()
	// Persist outside mu so inserts never stall behind the descriptor's
	// disk latency; the expiring flag keeps further rounds out meanwhile.
	err := t.persistDescriptor()
	for _, dt := range doomed {
		t.release(dt)
	}
	t.mu.Lock()
	t.expiring = false
	t.stats.ExpiriesInFlight.Add(-1)
	t.maintCond.Broadcast()
	t.mu.Unlock()
	if err != nil {
		return err
	}
	t.stats.TabletsExpired.Add(int64(len(doomed)))
	t.stats.ExpiryRuns.Add(1)
	return nil
}

// ExpireNow runs TTL reclamation immediately; tests and the ltbench
// harness use it, while the server relies on Tick.
func (t *Table) ExpireNow() error {
	return t.expireTTL(t.opts.Clock.Now())
}
