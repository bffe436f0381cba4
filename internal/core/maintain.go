package core

import (
	"errors"
	"time"

	"littletable/internal/clock"
	"littletable/internal/period"
)

// Background maintenance scheduler.
//
// The paper's merge policy (§3.4.1–§3.4.2) never merges across time
// periods, so merges on distinct periods of the same table share no input
// tablets; they only contend on the short in-memory critical sections
// under mu and the descriptor write. That disjointness is what makes
// maintenance parallel-safe: the work queue here is "per table × time
// period", each period has at most one merge in flight (the merging set),
// each claimed input is marked busy under mu before any I/O starts, and
// commits remain serialized under mu, so recovery and open cursors see
// exactly the states the serial engine could produce.
//
// Fairness: a period busy enough to always have a fresh candidate pair
// could otherwise monopolize the workers while an old period's backlog
// lingers, voiding the appendix's O(log T) tablet bound. Each period
// therefore records when it first became claimable, and claims go to the
// longest-waiting period (priority aging); the accumulated queue delay is
// exported as Stats.MergeWaitNs (ExpiryWaitNs for TTL rounds).

// maintClaim is one claimed merge: the period it locks, the busy-marked
// inputs, and the output sequence number reserved under mu.
type maintClaim struct {
	per    period.Period
	inputs []*diskTablet
	seq    uint64
}

// claimMergeLocked selects and claims the next merge, or returns nil when
// none applies: among periods with an eligible candidate set (per
// pickWithinGroupLocked) and no merge already in flight, it picks the one
// that has been waiting longest. When dry, it only reports whether a claim
// exists, without taking it — MaintainUntilQuiet uses that to decide
// "no work left". Claiming marks the inputs busy, enters the
// period into the merging set, and reserves the output seq. Caller holds
// t.mu; merge retry backoff is honored here so every path (Tick, workers,
// quiet checks) sees the same schedule.
func (t *Table) claimMergeLocked(now int64, dry bool) *maintClaim {
	if t.maintHold > 0 {
		// An export is copying sealed tablets out; merging would replace
		// pinned inputs and void the migration's grow-only snapshot.
		return nil
	}
	if t.mergeFails > 0 && now < t.mergeRetryAt {
		return nil
	}
	var best *maintClaim
	var bestSince int64
	seen := make(map[period.Period]bool)
	consider := func(group []*diskTablet, p period.Period) {
		seen[p] = true
		if t.merging[p] {
			return
		}
		ins := t.pickWithinGroupLocked(group, p, now)
		if ins == nil {
			delete(t.mergeWaitSince, p)
			return
		}
		since, ok := t.mergeWaitSince[p]
		if !ok {
			since = time.Now().UnixNano()
			t.mergeWaitSince[p] = since
		}
		if best == nil || since < bestSince {
			best = &maintClaim{per: p, inputs: ins}
			bestSince = since
		}
	}
	if t.opts.MergeAcrossPeriods {
		// Ablation baseline: one group spanning all time, no rollover
		// delay — the merge-as-much-as-possible policy of §6's systems.
		consider(t.disk, period.Period{Start: minInt64, End: maxInt64, Gran: period.FourHour})
	} else {
		// Walk groups of same-period tablets in timespan order.
		i := 0
		for i < len(t.disk) {
			p := period.For(t.disk[i].rec.MinTs, now)
			j := i
			for j < len(t.disk) && p.Contains(t.disk[j].rec.MinTs) {
				j++
			}
			consider(t.disk[i:j], p)
			i = j
		}
	}
	// Drop aging entries for periods that no longer exist on disk (merged
	// away, rolled into a coarser period) so the map stays bounded.
	for p := range t.mergeWaitSince {
		if !seen[p] {
			delete(t.mergeWaitSince, p)
		}
	}
	if best == nil || dry {
		return best
	}
	t.stats.MergeWaitNs.Add(time.Now().UnixNano() - bestSince)
	delete(t.mergeWaitSince, best.per)
	t.merging[best.per] = true
	for _, dt := range best.inputs {
		dt.busy = true
		t.acquireLocked(dt)
	}
	best.seq = t.nextSeq
	t.nextSeq++
	return best
}

// expiryDueLocked reports whether a TTL expiry round would reclaim at
// least one tablet right now, maintaining the waiting-since marker that
// feeds Stats.ExpiryWaitNs. Caller holds t.mu.
func (t *Table) expiryDueLocked(now int64) bool {
	if t.ttl <= 0 || t.expiring || t.maintHold > 0 {
		return false
	}
	cutoff := now - t.ttl
	for _, dt := range t.disk {
		if !dt.busy && dt.rec.MaxTs < cutoff {
			if t.expireWaitSince == 0 {
				t.expireWaitSince = time.Now().UnixNano()
			}
			return true
		}
	}
	t.expireWaitSince = 0
	return false
}

// hasMaintWorkLocked reports whether a maintenance worker calling
// MaintStep now would find something to do. Caller holds t.mu.
func (t *Table) hasMaintWorkLocked(now int64) bool {
	return t.expiryDueLocked(now) || t.claimMergeLocked(now, true) != nil
}

// MaintStep performs one unit of maintenance: a due TTL expiry round if
// any (expiry is cheap — drop + descriptor write — and must not queue
// behind a long merge), otherwise one merge. It reports whether it did
// anything. Safe for concurrent use.
func (t *Table) MaintStep() (bool, error) {
	did, _, err := t.maintStep(true)
	return did, err
}

// maintStep is MaintStep with expiry optional; merged reports whether the
// unit was a merge.
func (t *Table) maintStep(expire bool) (did, merged bool, err error) {
	if expire {
		now := t.opts.Clock.Now()
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			return false, false, ErrTableClosed
		}
		due := t.expiryDueLocked(now)
		t.mu.Unlock()
		if due {
			return true, false, t.expireTTL(now)
		}
	}
	merged, err = t.MergeStep()
	return merged, merged, err
}

// drainMaint is the one maintenance loop. It runs maintenance units —
// TTL expiry too when expire is set — until none applies, or until it has
// merged maxMerges times (0 means no bound), and returns the number of
// merges. Tick takes one merge per call; the maintenance workers,
// MaintainUntilQuiet and MergeUntilStable run it unbounded. Merge retries
// follow the schedule claimMergeLocked enforces, whoever calls.
func (t *Table) drainMaint(expire bool, maxMerges int) (int, error) {
	merges := 0
	for maxMerges == 0 || merges < maxMerges {
		did, merged, err := t.maintStep(expire)
		if err != nil || !did {
			return merges, err
		}
		if merged {
			merges++
		}
	}
	return merges, nil
}

// maintPass is one maintenance worker's pass per ring of the doorbell.
func (t *Table) maintPass() error {
	_, err := t.drainMaint(true, 0)
	return err
}

// tickMaintPass is Tick's pass in serial mode: due expiry and one merge.
func (t *Table) tickMaintPass() error {
	_, err := t.drainMaint(true, 1)
	return err
}

// MaintainUntilQuiet blocks until maintenance has nothing left to do: no
// claimable merge, no due expiry, and nothing in flight. It drains the
// maintenance loop itself and waits out merges and expiry rounds that
// workers (or other callers) have in flight, so callers can use it in
// either mode. Work that is merely deferred — a tablet younger than
// MergeDelay, a period inside its rollover delay, a merge backoff window —
// does not keep it waiting; it describes the schedule now, not the
// schedule after the clock advances.
func (t *Table) MaintainUntilQuiet() error {
	for {
		if _, err := t.drainMaint(true, 0); err != nil {
			return err
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			return ErrTableClosed
		}
		busy := len(t.merging) > 0 || t.expiring
		if !busy && !t.hasMaintWorkLocked(t.opts.Clock.Now()) {
			t.mu.Unlock()
			return nil
		}
		if busy {
			t.maintCond.Wait()
		}
		t.mu.Unlock()
	}
}

// Retry backoff: a failed flush or merge (bad disk, injected fault) must
// never take the table down — inserts and queries continue — but hammering
// a failing disk helps nobody, so scheduled retries back off exponentially,
// capped, on the engine clock (Options.Clock).
const (
	retryBackoffBase = 1 * clock.Second
	retryBackoffCap  = 60 * clock.Second
)

// retryBackoffMaxDoublings bounds the doubling loop below on its own: 63
// doublings of a positive int64 base already wrap, and the cap is reached
// far sooner, so the iteration count must never track a pathological
// fails value.
const retryBackoffMaxDoublings = 8

// retryBackoff returns the delay before the next scheduled flush or merge
// attempt after the given number of consecutive failures. The loop is
// capped explicitly — both by the delay cap and by an iteration bound — so
// no fails count, however large or corrupt, can overflow the
// multiplication.
func retryBackoff(fails int) int64 {
	if fails > retryBackoffMaxDoublings {
		fails = retryBackoffMaxDoublings
	}
	d := int64(retryBackoffBase)
	for i := 1; i < fails && d < retryBackoffCap; i++ {
		d *= 2
	}
	if d > retryBackoffCap {
		d = retryBackoffCap
	}
	return d
}

// Worker pools. Each kind of maintenance — flushing, and merging with TTL
// expiry — has one pass function, run either by a pool of background
// workers woken by a doorbell or, when the pool is empty (the default),
// inline by Tick: serial mode is one worker stepped by Tick.

// startWorkers starts n workers that each run pass whenever the returned
// doorbell rings. With n <= 0 it starts none and returns nil.
func (t *Table) startWorkers(n int, pass func() error) chan struct{} {
	if n <= 0 {
		return nil
	}
	bell := make(chan struct{}, 1)
	for range n {
		t.workers.Add(1)
		go t.worker(bell, pass)
	}
	return bell
}

// worker is one background worker: each ring of bell runs one pass. A
// pass's failures are logged and counted where they happen, and retried
// on the engine-clock schedule, so the worker never spins on a failing
// disk — it parks until the next ring (every Tick rings). It exits when
// Close closes t.stop.
func (t *Table) worker(bell <-chan struct{}, pass func() error) {
	defer t.workers.Done()
	for {
		select {
		case <-t.stop:
			return
		case <-bell:
		}
		if errors.Is(pass(), ErrTableClosed) {
			return
		}
	}
}

// ring rings a worker pool's doorbell without blocking: the channel is a
// buffered(1) level trigger. No-op for an empty pool.
func ring(bell chan struct{}) {
	if bell == nil {
		return
	}
	select {
	case bell <- struct{}{}:
	default:
	}
}

// runPass hands one pass to the pool behind bell by ringing it, or runs it
// inline when the pool is empty.
func runPass(bell chan struct{}, pass func() error) error {
	if bell == nil {
		return pass()
	}
	ring(bell)
	return nil
}

// MergesInFlightNow returns how many merges are currently running;
// tests and the crash harness sample it to prove real overlap.
func (t *Table) MergesInFlightNow() int64 {
	return t.stats.MergesInFlight.Load()
}
