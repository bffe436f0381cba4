package core

import "slices"

// tabletSet is a table's disk tablets and the one rule that keeps them
// recoverable (§3.2, §3.4.3): a tablet's rows are durable once the
// descriptor names it, so a dropped tablet keeps its file until no reader
// holds it and a durable descriptor no longer names it.
//
// Every change is a Publish, which moves the published generation on;
// Snapshot returns what its descriptor names, and Persisted reports how
// the write went. Acquire/Release count readers; Claim/Unclaim mark what
// one maintenance rewrite owns. The set does no I/O: the caller writes the
// descriptor and deletes the tablets Release, Unclaim and Persisted
// return. Table.mu guards it.
type tabletSet struct {
	live    []*diskTablet // sorted by (MinTs, Seq)
	retired []*diskTablet // dropped, their files not yet deleted
	gen     uint64        // published generation
	durable uint64        // newest generation a descriptor write completed
	fails   int           // consecutive failed writes
	retryAt int64         // engine time a failed write is retried at
}

// Publish adds add to the live set and retires drop, and returns the new
// generation; alter publishes nothing for the other descriptor fields.
func (s *tabletSet) Publish(add, drop []*diskTablet) uint64 {
	s.gen++
	if len(drop) > 0 {
		s.live = slices.DeleteFunc(s.live, func(dt *diskTablet) bool { return slices.Contains(drop, dt) })
		for _, dt := range drop {
			dt.dropGen = s.gen
		}
		s.retired = append(s.retired, drop...)
	}
	s.live = append(s.live, add...)
	// Insertion sort: the list is nearly sorted after every change.
	d := s.live
	for i := 1; i < len(d); i++ {
		for j := i; j > 0 && diskLess(d[j], d[j-1]); j-- {
			d[j], d[j-1] = d[j-1], d[j]
		}
	}
	return s.gen
}

// diskLess orders tablets by their timespans' lower bounds (§3.4.1), with
// creation sequence as the tiebreaker.
func diskLess(a, b *diskTablet) bool {
	if a.rec.MinTs != b.rec.MinTs {
		return a.rec.MinTs < b.rec.MinTs
	}
	return a.rec.Seq < b.rec.Seq
}

// Acquire takes a reference on every live tablet pred accepts (nil: all)
// and returns them, oldest first.
func (s *tabletSet) Acquire(pred func(*diskTablet) bool) []*diskTablet {
	var got []*diskTablet
	for _, dt := range s.live {
		if pred == nil || pred(dt) {
			dt.refs++
			got = append(got, dt)
		}
	}
	return got
}

// Hold takes one more reference on dt, which the caller already holds a
// reference on, live or retired.
func (s *tabletSet) Hold(dt *diskTablet) { dt.refs++ }

// Release drops a reference on each of dts and returns the tablets whose
// files can go now.
func (s *tabletSet) Release(dts []*diskTablet) []*diskTablet {
	for _, dt := range dts {
		dt.refs--
	}
	return s.Reap()
}

// Claim marks every live tablet that pred accepts and no other claim
// holds, takes a reference on each, and returns them, oldest first.
func (s *tabletSet) Claim(pred func(*diskTablet) bool) []*diskTablet {
	var got []*diskTablet
	for _, dt := range s.live {
		if !dt.busy && pred(dt) {
			dt.busy = true
			dt.refs++
			got = append(got, dt)
		}
	}
	return got
}

// Unclaim ends the claim on dts and returns the tablets whose files can
// go now.
func (s *tabletSet) Unclaim(dts []*diskTablet) []*diskTablet {
	for _, dt := range dts {
		dt.busy = false
	}
	return s.Release(dts)
}

// Unclaimed returns the live tablets that pred accepts and no claim holds.
func (s *tabletSet) Unclaimed(pred func(*diskTablet) bool) []*diskTablet {
	var got []*diskTablet
	for _, dt := range s.live {
		if !dt.claimed() && pred(dt) {
			got = append(got, dt)
		}
	}
	return got
}

// claimed reports whether a maintenance rewrite holds dt.
func (dt *diskTablet) claimed() bool { return dt.busy }

// Snapshot returns the published generation and the records its
// descriptor names, or due false when a completed write already holds it.
func (s *tabletSet) Snapshot() (gen uint64, recs []tabletRecord, due bool) {
	if s.gen <= s.durable {
		return s.gen, nil, false
	}
	recs = make([]tabletRecord, len(s.live))
	for i, dt := range s.live {
		recs[i] = dt.rec
	}
	return s.gen, recs, true
}

// Persisted records how the descriptor write of generation gen went and
// returns the tablets whose files can go now; a failure returns the
// consecutive failures and schedules the retry (retryBackoff).
func (s *tabletSet) Persisted(gen uint64, err error, now int64) (gone []*diskTablet, fails int) {
	if err != nil {
		s.fails++
		s.retryAt = now + retryBackoff(s.fails)
		return nil, s.fails
	}
	s.fails = 0
	s.durable = max(s.durable, gen)
	return s.Reap(), 0
}

// RetryDue reports whether a failed write's retry time has come.
func (s *tabletSet) RetryDue(now int64) bool { return s.fails > 0 && now >= s.retryAt }

// Reap takes out of the retired list every tablet that no reader holds
// and no durable descriptor names, and returns them.
func (s *tabletSet) Reap() []*diskTablet {
	if len(s.retired) == 0 {
		return nil
	}
	var gone []*diskTablet
	s.retired = slices.DeleteFunc(s.retired, func(dt *diskTablet) bool {
		if dt.refs == 0 && dt.dropGen <= s.durable {
			gone = append(gone, dt)
			return true
		}
		return false
	})
	return gone
}

// Close empties the set and returns every tablet it held, for the caller
// to close. The retired ones' files stay on disk for the next open, whose
// descriptor may still name them.
func (s *tabletSet) Close() []*diskTablet {
	all := append(s.live, s.retired...)
	s.live, s.retired = nil, nil
	return all
}
