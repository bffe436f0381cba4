package core

import (
	"littletable/internal/memtable"
	"littletable/internal/schema"
)

// checkUnique implements §3.4.4's primary-key uniqueness enforcement,
// cheapest check first:
//
//  1. A row whose timestamp is newer than every row in the table is unique
//     (keys embed the timestamp), using only cached metadata.
//  2. A row whose key exceeds the largest key of every tablet that could
//     contain its timestamp is unique, using only tablet indexes. This is
//     the fast path aggregators hit, since they insert in ascending key
//     order within each period.
//  3. Bloom filters rule out most remaining disk tablets without I/O.
//  4. Whatever survives requires a point read.
//
// Inserts hold insertMu (the paper's lock table: other inserts to the same
// table block; queries continue), so two racing inserts cannot both pass.
func (t *Table) checkUnique(sc *schema.Schema, row schema.Row, now int64) (bool, error) {
	ts := sc.Ts(row)

	t.mu.Lock()
	if t.hasRows && ts > t.maxTs {
		t.mu.Unlock()
		t.stats.UniqueFastNew.Add(1)
		return true, nil
	}
	if !t.hasRows {
		t.mu.Unlock()
		t.stats.UniqueFastNew.Add(1)
		return true, nil
	}

	// Collect the tablets whose timespan contains ts.
	disks := t.set.Acquire(func(dt *diskTablet) bool { return dt.rec.MinTs <= ts && ts <= dt.rec.MaxTs })
	var mems []*memtable.Memtable
	collect := func(f *fillingTablet) {
		if f.mt.Empty() {
			return
		}
		lo, hi := f.mt.Timespan()
		if lo <= ts && ts <= hi {
			mems = append(mems, f.mt)
		}
	}
	for _, f := range t.filling {
		collect(f)
	}
	for _, g := range t.pending {
		for _, f := range g.tablets {
			collect(f)
		}
	}
	t.mu.Unlock()
	defer t.release(disks, (*tabletSet).Release)

	if len(disks) == 0 && len(mems) == 0 {
		t.stats.UniqueFastNew.Add(1)
		return true, nil
	}

	// Fast path 2: larger than every candidate tablet's largest key.
	key := sc.KeyOf(row)
	larger := true
	for _, mt := range mems {
		if mk, ok := memMaxKey(mt.Schema(), mt); ok && schema.CompareKeySlices(key, mk) <= 0 {
			larger = false
			break
		}
	}
	if larger {
		for _, dt := range disks {
			lk, err := dt.tab.LastKey()
			if err != nil {
				return false, err
			}
			if lk != nil && schema.CompareKeySlices(key, lk) <= 0 {
				larger = false
				break
			}
		}
	}
	if larger {
		t.stats.UniqueFastKey.Add(1)
		return true, nil
	}

	// Memtable point lookups are cheap; do them before Bloom/disk work.
	// Note rows in memtables are in the current schema's key layout (key
	// columns never change).
	for _, mt := range mems {
		if mt.Contains(key) {
			return false, nil
		}
	}

	// Bloom filters (§3.4.5: "would also be useful to check for duplicate
	// keys during inserts").
	encKey := sc.AppendKey(nil, row)
	var probe []*diskTablet
	for _, dt := range disks {
		if dt.tab.MayContainKey(encKey) {
			probe = append(probe, dt)
		}
	}
	if len(probe) == 0 {
		t.stats.UniqueBloom.Add(1)
		return true, nil
	}

	// Slow path: point reads, possibly touching disk. insertMu is held;
	// t.mu is not, so queries proceed unencumbered (§3.4.4).
	t.stats.UniqueProbes.Add(1)
	for _, dt := range probe {
		c, err := dt.tab.Seek(key, true)
		if err != nil {
			return false, err
		}
		if c.Next() {
			if dt.tab.Schema().CompareRowToKey(c.Row(), key) == 0 {
				return false, nil
			}
		}
		if err := c.Err(); err != nil {
			return false, err
		}
	}
	return true, nil
}
