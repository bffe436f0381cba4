package core

import (
	"errors"
	"fmt"
	"path/filepath"

	"littletable/internal/period"
	"littletable/internal/tablet"
)

// Sealed-tablet export and import: the primitives behind live table
// migration between shards. Because tablets are immutable once written and
// the descriptor is the sole durability root (§3.2), a table replica is
// nothing more than a byte copy of its sealed tablet files plus descriptor
// entries naming them — there is no WAL to replicate. Prefix durability
// (§5) makes this the natural replication unit.
//
// Export protocol: BeginExport freeze-flushes the table, takes a
// maintenance hold (no merges, no TTL expiry — the tablet set can then
// only GROW, by flushes of new inserts), and pins the current disk
// tablets so their files outlive any concurrent drop. ReadExportAt serves
// raw file bytes from the pinned set. Re-invoking BeginExport refreshes
// the snapshot under the same hold, which is how a cutover pass picks up
// tablets flushed since the first pass. EndExport releases pins and hold.
//
// Import: InstallTablet writes received bytes as a new tablet file under
// a locally reserved sequence number, fully verifies it (footer parse +
// every block checksum — these are network bytes), and publishes it with
// an atomic descriptor commit. A crash between file write and commit
// leaves an orphan that the next open deletes; the source still owns the
// table until the router flips placement, so nothing is lost.

// ErrNoExport reports a ReadExportAt against a file that is not part of
// the current export snapshot.
var ErrNoExport = errors.New("core: file not in export snapshot")

// TabletInfo describes one exported sealed tablet.
type TabletInfo struct {
	File     string
	Seq      uint64
	RowCount int64
	MinTs    int64
	MaxTs    int64
	Bytes    int64
}

// BeginExport freezes the table for export: every in-memory tablet is
// flushed, maintenance is held, and the resulting on-disk tablet set is
// pinned and returned. Calling it again refreshes the snapshot (new pins
// replace old) while keeping the hold.
func (t *Table) BeginExport() ([]TabletInfo, error) {
	// Flush first: the manifest must cover every row accepted so far.
	// FlushAll takes insertMu, so it cannot run under mu.
	if err := t.FlushAll(); err != nil {
		return nil, err
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, ErrTableClosed
	}
	if t.exports == nil {
		t.maintHold++
	}
	prev := t.exports
	t.exports = make(map[string]*diskTablet, len(t.disk))
	infos := make([]TabletInfo, 0, len(t.disk))
	for _, dt := range t.disk {
		t.acquireLocked(dt)
		t.exports[dt.rec.File] = dt
		infos = append(infos, TabletInfo{
			File:     dt.rec.File,
			Seq:      dt.rec.Seq,
			RowCount: dt.rec.RowCount,
			MinTs:    dt.rec.MinTs,
			MaxTs:    dt.rec.MaxTs,
			Bytes:    dt.rec.Bytes,
		})
	}
	t.mu.Unlock()
	t.releasePins(prev)
	return infos, nil
}

// ReadExportAt reads raw bytes of a pinned exported tablet file at off.
// It reports the file's total size alongside the bytes read, so a copier
// can chunk without a separate stat round trip.
func (t *Table) ReadExportAt(file string, off int64, p []byte) (n int, total int64, err error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return 0, 0, ErrTableClosed
	}
	dt := t.exports[file]
	if dt == nil {
		t.mu.Unlock()
		return 0, 0, fmt.Errorf("%w: %q", ErrNoExport, file)
	}
	// Hold our own reference across the I/O: the pin could be released by
	// a concurrent EndExport while we read.
	t.acquireLocked(dt)
	t.mu.Unlock()
	defer t.release(dt)
	total = dt.tab.SizeBytes()
	if off >= total {
		return 0, total, nil
	}
	n, err = dt.tab.ReadRawAt(p, off)
	return n, total, err
}

// EndExport releases the export snapshot and the maintenance hold.
// Idempotent: ending a table with no export in progress is a no-op.
func (t *Table) EndExport() {
	t.mu.Lock()
	if t.exports == nil {
		t.mu.Unlock()
		return
	}
	prev := t.exports
	t.exports = nil
	t.maintHold--
	if t.maintHold == 0 {
		// Merges and expiry may have become claimable while held.
		ring(t.maintKick)
	}
	t.mu.Unlock()
	t.releasePins(prev)
}

// releasePins drops a superseded snapshot's references. A pinned tablet
// that was dropped while exported (a DeleteWhere racing the export —
// merges can't, they're held) is deleted here on its last reference.
// Caller must NOT hold t.mu.
func (t *Table) releasePins(prev map[string]*diskTablet) {
	for _, dt := range prev {
		t.release(dt)
	}
}

// HoldMaintenance pauses merges and TTL expiry until the returned release
// function is called (safe to call once; extra calls are no-ops). Flushes
// are unaffected — they only ever ADD tablets. Used by exports and tests.
func (t *Table) HoldMaintenance() (release func()) {
	t.mu.Lock()
	t.maintHold++
	t.mu.Unlock()
	released := false
	return func() {
		t.mu.Lock()
		if !released {
			released = true
			t.maintHold--
			if t.maintHold == 0 {
				ring(t.maintKick)
			}
		}
		t.mu.Unlock()
	}
}

// InstallTablet writes data — the full byte image of a sealed tablet
// shipped from another shard — as a new local tablet and publishes it in
// the descriptor. The image is fully verified before publication: footer
// parsed, every block checksum checked, and the advertised row count and
// timespan compared against the file's own footer. On any failure the
// file is removed and nothing is published.
func (t *Table) InstallTablet(data []byte, rowCount, minTs, maxTs int64) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrTableClosed
	}
	seq := t.nextSeq
	t.nextSeq++
	t.mu.Unlock()

	// Stage to a temporary name and rename into place (§3.2): recovery
	// scans the directory for tablet files, so a crash mid-write must
	// never leave a half-written image under a name recovery would open.
	path := filepath.Join(t.dir, tabletFileName(seq))
	tmp := path + ".tmp"
	f, err := t.opts.FS.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		t.opts.FS.Remove(tmp)
		return err
	}
	if t.opts.SyncWrites {
		if err := f.Sync(); err != nil {
			f.Close()
			t.opts.FS.Remove(tmp)
			return err
		}
	}
	if err := f.Close(); err != nil {
		t.opts.FS.Remove(tmp)
		return err
	}
	if err := t.opts.FS.Rename(tmp, path); err != nil {
		t.opts.FS.Remove(tmp)
		return err
	}
	if t.opts.SyncWrites {
		if err := t.opts.FS.SyncDir(t.dir); err != nil {
			t.opts.FS.Remove(path)
			return err
		}
	}

	tab, err := tablet.OpenFS(t.opts.FS, path)
	if err == nil {
		// Unconditional full verification: these bytes crossed the network,
		// and a corrupt tablet discovered now costs one retry instead of a
		// quarantine at some future open.
		if verr := tab.VerifyBlocks(); verr != nil {
			tab.Close()
			tab, err = nil, verr
		}
	}
	if err == nil {
		gotRows := tab.RowCount()
		gotMin, gotMax := tab.Timespan()
		if gotRows != rowCount || gotMin != minTs || gotMax != maxTs {
			tab.Close()
			tab, err = nil, fmt.Errorf("core: migrated tablet metadata mismatch: rows %d/%d ts [%d,%d]/[%d,%d]",
				gotRows, rowCount, gotMin, gotMax, minTs, maxTs)
		}
	}
	if err != nil {
		t.opts.FS.Remove(path)
		return fmt.Errorf("core: install tablet: %w", err)
	}

	now := t.opts.Clock.Now()
	rec := tabletRecord{File: filepath.Base(path), Seq: seq, RowCount: rowCount, MinTs: minTs, MaxTs: maxTs, Bytes: int64(len(data))}
	dt := t.newDiskTablet(rec, tab, now, period.For(minTs, now).Gran)
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		tab.Close()
		t.opts.FS.Remove(path)
		return ErrTableClosed
	}
	t.disk = append(t.disk, dt)
	if rowCount > 0 && (maxTs > t.maxTs || !t.hasRows) {
		t.maxTs = maxTs
		t.hasRows = true
	}
	t.sortDiskLocked()
	if err := t.writeDescriptorLocked(); err != nil {
		t.dropLocked(dt)
		t.mu.Unlock()
		return err
	}
	t.stats.TabletsInstalled.Add(1)
	t.stats.BytesInstalled.Add(int64(len(data)))
	ring(t.maintKick)
	t.mu.Unlock()
	return nil
}
