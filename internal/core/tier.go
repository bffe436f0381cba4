package core

import (
	"fmt"

	"littletable/internal/tablet"
	"littletable/internal/vfs"
)

// TierColdTablets implements the cold-storage offload the paper's related
// work discusses (§6): "LHAM introduced the idea of moving older data in a
// log-structured system to write-once media. This approach is especially
// attractive for time-series data, where very old values are accessed
// infrequently but remain valuable, and we are considering using Amazon S3
// or another cloud service as an additional backing store."
//
// Tablets whose newest row is older than olderThan are copied into
// coldDir — the stand-in for the cheaper backing store — and the table's
// descriptor is updated to reference them there; the hot copies are then
// removed. Queries keep working transparently: a tablet's location is
// invisible above the descriptor. Returns the number of tablets moved.
//
// Tables may share one coldDir: a cold copy's name starts with its
// table's (coldFileName), and the descriptor records coldDir, so orphan
// cleaning at open removes this table's unnamed copies there and no
// other table's.
func (t *Table) TierColdTablets(olderThan int64, coldDir string) (int, error) {
	if err := t.opts.FS.MkdirAll(coldDir); err != nil {
		return 0, err
	}
	// Write side of maintMu: tiering relocates tablet files and must see
	// no merge in flight.
	t.maintMu.Lock()
	defer t.maintMu.Unlock()

	victims, err := t.claim(func(dt *diskTablet) bool {
		return dt.rec.Dir == "" && dt.rec.MaxTs < olderThan // not already cold
	})
	if err != nil {
		return 0, err
	}
	defer t.release(victims, (*tabletSet).Unclaim)
	// Record coldDir durably before the first copy into it, so that
	// orphan cleaning at the next open scans it whatever happens next.
	if len(victims) > 0 {
		err := t.alter(func() (func(), error) {
			if t.coldDir == coldDir {
				return nil, nil
			}
			old := t.coldDir
			t.coldDir = coldDir
			return func() { t.coldDir = old }, nil
		})
		if err != nil {
			return 0, err
		}
	}

	moved := 0
	for _, dt := range victims {
		rec := dt.rec
		rec.Dir, rec.File = coldDir, coldFileName(t.name, rec.Seq)
		coldPath := t.tabletPath(rec)
		if _, err := vfs.CopyFileAtomic(t.opts.FS, dt.path, coldPath, t.opts.SyncWrites); err != nil {
			return moved, fmt.Errorf("core: tier %s: %w", dt.rec.File, err)
		}
		tab, err := tablet.OpenFS(t.opts.FS, coldPath)
		if err != nil {
			t.opts.FS.Remove(coldPath)
			return moved, fmt.Errorf("core: open cold tablet: %w", err)
		}
		cold := t.newDiskTablet(rec, tab, dt.addedAt, dt.wroteGran)
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			tab.Close()
			t.opts.FS.Remove(coldPath)
			return moved, ErrTableClosed
		}
		t.set.Publish([]*diskTablet{cold}, []*diskTablet{dt}) // hot copy deleted once durable and unread
		t.mu.Unlock()
		moved++
		if err := t.persistDescriptor(); err != nil {
			return moved, err
		}
	}
	return moved, nil
}

// ColdTabletCount reports how many tablets live in a cold directory.
func (t *Table) ColdTabletCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, dt := range t.set.live {
		if dt.rec.Dir != "" {
			n++
		}
	}
	return n
}
