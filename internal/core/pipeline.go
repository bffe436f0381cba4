package core

// backpressure blocks the inserter while the sealed-but-unflushed backlog
// exceeds its limits — either §5.1.3's outstanding-tablet count or the
// byte cap. The inserter then becomes disk-bound: it drains the backlog
// itself through the flush loop, alongside any flush workers, and waits
// on their commits when every queued group is already in flight (counted
// as a stall either way). Called with insertMu held and no other locks.
func (t *Table) backpressure() error {
	capBytes := t.opts.maxUnflushedBytes()
	t.mu.Lock()
	over := t.overBacklogLocked(capBytes)
	t.mu.Unlock()
	if !over {
		return nil
	}
	t.stats.BackpressureStalls.Add(1)
	_, err := t.drainFlush(false, func() bool { return !t.overBacklogLocked(capBytes) })
	return err
}

// overBacklogLocked reports whether the sealed-but-unflushed backlog is at
// or past either limit. Caller holds t.mu.
func (t *Table) overBacklogLocked(capBytes int64) bool {
	if t.pendingTabletsLocked() >= t.opts.MaxPendingTablets {
		return true
	}
	return capBytes > 0 && t.sealedBytes > capBytes
}

// SealedBytes returns the encoded bytes of sealed-but-unflushed tablets
// (the quantity the backpressure cap bounds).
func (t *Table) SealedBytes() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sealedBytes
}

// FlushQueueDepth returns the number of sealed flush groups not yet
// committed, including any currently being written.
func (t *Table) FlushQueueDepth() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.pending)
}
