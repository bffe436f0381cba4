package core

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"strings"

	"littletable/internal/schema"
	"littletable/internal/vfs"
)

// descriptorFile is the name of a table's descriptor within its directory.
const descriptorFile = "desc.json"

// quarantineSuffix marks tablet files set aside because they failed to
// open: corrupt, truncated, or unreadable. Quarantined files are dropped
// from the descriptor but kept on disk for post-mortems; they are never
// deleted by orphan cleaning.
const quarantineSuffix = ".quarantine"

// tabletRecord is one on-disk tablet as named by the descriptor. LittleTable
// caches each tablet's timespan and "writes the list of on-disk tablets and
// their timespans to a table descriptor file after every change" (§3.2).
type tabletRecord struct {
	File     string `json:"file"`
	Seq      uint64 `json:"seq"` // creation order, for flush-order recovery
	RowCount int64  `json:"rows"`
	MinTs    int64  `json:"min_ts"`
	MaxTs    int64  `json:"max_ts"`
	Bytes    int64  `json:"bytes"`
	// Dir is the tablet's directory when tiered to cold storage (§6's
	// LHAM-style offload); empty means the table's own directory.
	Dir string `json:"dir,omitempty"`
}

// descriptor is the persistent root of a table: schema, TTL, and the
// authoritative tablet list. A tablet file not named here does not exist as
// far as recovery is concerned.
type descriptor struct {
	Name    string         `json:"name"`
	Schema  *schema.Schema `json:"schema"`
	TTL     int64          `json:"ttl_us"` // 0 = no expiry
	NextSeq uint64         `json:"next_seq"`
	Tablets []tabletRecord `json:"tablets"`
	Rollups []RollupRule   `json:"rollups,omitempty"` // continuous-downsampling rules
}

// writeDescriptor persists d atomically: write to a temporary file, then
// rename over the previous version (§3.2). With sync, the file is fsynced
// before the rename and the directory after it — the rename itself is not
// durable on ext4 until the directory's metadata reaches disk.
//
// Changes to the tablet set write it outside Table.mu
// (Table.persistDescriptor). Schema, TTL and rollup DDL, InstallTablet and
// quarantine at open write it under Table.mu (writeDescriptorLocked) by
// design: their contract is that an error changed nothing, so the write
// and the undo of their in-memory change must be one step. They are rare
// (operator commands, not per-insert), so the stall is bounded.
//
//ltlint:ignore lockorder DDL and install commits undo their in-memory change on a failed write, which needs Table.mu across it; see comment above
func writeDescriptor(fsys vfs.FS, dir string, d *descriptor, sync bool) error {
	data, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		return fmt.Errorf("core: marshal descriptor: %w", err)
	}
	tmp := filepath.Join(dir, descriptorFile+".tmp")
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if sync {
		if err := f.Sync(); err != nil {
			f.Close()
			fsys.Remove(tmp)
			return err
		}
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, filepath.Join(dir, descriptorFile)); err != nil {
		fsys.Remove(tmp)
		return err
	}
	if sync {
		if err := fsys.SyncDir(dir); err != nil {
			return err
		}
	}
	return nil
}

// readDescriptor loads a table's descriptor.
func readDescriptor(fsys vfs.FS, dir string) (*descriptor, error) {
	data, err := vfs.ReadFile(fsys, filepath.Join(dir, descriptorFile))
	if err != nil {
		return nil, err
	}
	var d descriptor
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("core: parse descriptor: %w", err)
	}
	if d.Schema == nil {
		return nil, fmt.Errorf("core: descriptor has no schema")
	}
	sort.Slice(d.Tablets, func(i, j int) bool { return d.Tablets[i].Seq < d.Tablets[j].Seq })
	return &d, nil
}

// cleanOrphans removes tablet files in dir that the descriptor does not
// name: leftovers from a crash between tablet write and descriptor update.
// Such rows were never durable (§3.1's guarantee is prefix-of-insertion
// order, anchored at the descriptor). Quarantined files are left alone.
func cleanOrphans(fsys vfs.FS, dir string, d *descriptor) error {
	named := make(map[string]bool, len(d.Tablets))
	for _, t := range d.Tablets {
		named[t.File] = true
	}
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || name == descriptorFile || strings.HasSuffix(name, quarantineSuffix) {
			continue
		}
		if strings.HasSuffix(name, ".tab") && !named[name] {
			if err := fsys.Remove(filepath.Join(dir, name)); err != nil {
				return err
			}
			continue
		}
		if strings.HasSuffix(name, ".tmp") {
			if err := fsys.Remove(filepath.Join(dir, name)); err != nil {
				return err
			}
		}
	}
	return nil
}

// tabletFileName names tablet files by creation sequence.
func tabletFileName(seq uint64) string { return fmt.Sprintf("%012d.tab", seq) }
