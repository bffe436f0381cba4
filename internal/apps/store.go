// Package apps holds the shared plumbing for the Dashboard application
// daemons of §4 — UsageGrabber, EventsGrabber, MotionGrabber, and the
// aggregators. Each daemon works against the Store interface, so the same
// code runs in-process against a core.Table (tests, benchmarks, co-located
// deployments) or over the wire through the client adaptor (the paper's
// deployment).
package apps

import (
	"errors"
	"strings"

	"littletable/internal/client"
	"littletable/internal/core"
	"littletable/internal/ltval"
	"littletable/internal/schema"
)

// RowIter streams query results.
type RowIter interface {
	Next() bool
	Row() schema.Row
	Err() error
	Close() error
}

// Store is the slice of LittleTable a grabber needs.
type Store interface {
	Schema() *schema.Schema
	Insert(rows []schema.Row) error
	Query(q core.Query) (RowIter, error)
	Latest(prefix []ltval.Value) (schema.Row, bool, error)
}

// Flusher is the optional store capability backing §4.1.2's proposed
// flush command: aggregators that see it flush their source table up to
// the period boundary instead of assuming 20-minute-old data is durable.
type Flusher interface {
	FlushBefore(ts int64) error
}

// CoreStore adapts an in-process table.
type CoreStore struct{ T *core.Table }

var (
	_ Store   = (*CoreStore)(nil)
	_ Flusher = (*CoreStore)(nil)
)

// FlushBefore implements Flusher.
func (s *CoreStore) FlushBefore(ts int64) error { return s.T.FlushBefore(ts) }

// Schema implements Store.
func (s *CoreStore) Schema() *schema.Schema { return s.T.Schema() }

// Insert implements Store.
func (s *CoreStore) Insert(rows []schema.Row) error { return s.T.Insert(rows) }

// Query implements Store.
func (s *CoreStore) Query(q core.Query) (RowIter, error) {
	it, err := s.T.Query(q)
	if err != nil {
		return nil, err
	}
	return it, nil
}

// Latest implements Store.
func (s *CoreStore) Latest(prefix []ltval.Value) (schema.Row, bool, error) {
	return s.T.LatestRow(prefix)
}

// ClientStore adapts a remote table handle.
type ClientStore struct{ T *client.Table }

var _ Store = (*ClientStore)(nil)

// Schema implements Store.
func (s *ClientStore) Schema() *schema.Schema { return s.T.Schema() }

// Insert implements Store.
func (s *ClientStore) Insert(rows []schema.Row) error { return s.T.InsertNow(rows) }

// Query implements Store.
func (s *ClientStore) Query(q core.Query) (RowIter, error) {
	return s.T.Query(q), nil
}

// Latest implements Store.
func (s *ClientStore) Latest(prefix []ltval.Value) (schema.Row, bool, error) {
	return s.T.LatestRow(prefix)
}

// IsDuplicate reports whether err is a primary-key uniqueness violation,
// whether raised in-process or over the wire.
func IsDuplicate(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, core.ErrDuplicateKey) {
		return true
	}
	var re *client.RemoteError
	return errors.As(err, &re) && strings.Contains(re.Msg, "duplicate primary key")
}

// InsertTolerant inserts rows, silently skipping duplicates. Aggregators
// need this: after a crash they "simply re-process the period for the row
// [they] found and all subsequent periods" (§4.1.2), and re-processing a
// partially-written period regenerates rows that already exist.
func InsertTolerant(s Store, rows []schema.Row) (inserted int, err error) {
	if err := s.Insert(rows); err == nil {
		return len(rows), nil
	} else if !IsDuplicate(err) {
		return 0, err
	}
	// Batch had duplicates; fall back to per-row inserts. Insert semantics
	// are per-row (batches are a transport optimization), so rows before
	// the failing one may already be in — per-row retry is safe either way.
	for _, row := range rows {
		if err := s.Insert([]schema.Row{row}); err != nil {
			if IsDuplicate(err) {
				continue
			}
			return inserted, err
		}
		inserted++
	}
	return inserted, nil
}

// FindLatestTimestamp locates the newest row timestamp in a store the way
// the paper's aggregators do (§4.1.2): LittleTable "provides no built-in,
// efficient way to find the most recent row in a table", so they "query
// their destination tables over exponentially longer periods in the past
// until they find some row" and then binary-search for the most recent
// one. Returns ok=false for an empty table (probed back to horizon).
func FindLatestTimestamp(s Store, now, horizon int64) (int64, bool, error) {
	// Exponential probe: find some window [start, now] containing a row.
	span := int64(1_000_000) // start at one second
	start := now - span
	for {
		if start < horizon {
			start = horizon
		}
		any, err := anyRowInRange(s, start, now)
		if err != nil {
			return 0, false, err
		}
		if any {
			break
		}
		if start == horizon {
			return 0, false, nil
		}
		span *= 2
		start = now - span
	}
	// Binary search: narrow to the newest non-empty suffix [lo, now].
	lo, hi := start, now
	for hi-lo > 1_000_000 { // stop at one-second resolution
		mid := lo + (hi-lo)/2
		any, err := anyRowInRange(s, mid, now)
		if err != nil {
			return 0, false, err
		}
		if any {
			lo = mid
		} else {
			hi = mid
		}
	}
	// Scan the final small window for the exact maximum.
	_, best, err := maxTsInRange(s, lo, now)
	if err != nil {
		return 0, false, err
	}
	return best, true, nil
}

func anyRowInRange(s Store, minTs, maxTs int64) (bool, error) {
	q := core.NewQuery()
	q.MinTs, q.MaxTs = minTs, maxTs
	q.Limit = 1
	it, err := s.Query(q)
	if err != nil {
		return false, err
	}
	defer it.Close()
	any := it.Next()
	return any, it.Err()
}

func maxTsInRange(s Store, minTs, maxTs int64) (bool, int64, error) {
	q := core.NewQuery()
	q.MinTs, q.MaxTs = minTs, maxTs
	it, err := s.Query(q)
	if err != nil {
		return false, 0, err
	}
	defer it.Close()
	sc := s.Schema()
	var best int64
	any := false
	for it.Next() {
		ts := sc.Ts(it.Row())
		if !any || ts > best {
			best = ts
			any = true
		}
	}
	return any, best, it.Err()
}
