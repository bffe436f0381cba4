package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
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
	// ColdDir is the directory the table last tiered into, which orphan
	// cleaning scans for this table's files.
	ColdDir string `json:"cold_dir,omitempty"`
}

// writeDescriptor persists d through vfs.WriteFileAtomic, replacing the
// previous version in one rename (§3.2).
//
// Changes to the tablet set write it outside Table.mu
// (Table.persistDescriptor). Schema, TTL and rollup DDL, InstallTablet,
// quarantine at open and a new cold directory write it under Table.mu
// (Table.alter) by design: their contract is that an error changed
// nothing, so the write and the undo of their in-memory change must be
// one step. They are rare (operator commands, not per-insert), so the
// stall is bounded.
//
//ltlint:ignore lockorder DDL and install commits undo their in-memory change on a failed write, which needs Table.mu across it; see comment above
func writeDescriptor(fsys vfs.FS, dir string, d *descriptor, sync bool) error {
	data, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		return fmt.Errorf("core: marshal descriptor: %w", err)
	}
	return vfs.WriteFileAtomic(fsys, filepath.Join(dir, descriptorFile), data, sync)
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

// cleanOrphans removes the files in dir, and this table's files in its
// cold directory, that the descriptor does not name: tablets and temporary
// files left by a crash or a failed write between a file's write and the
// descriptor update. Such rows were never durable (§3.1's guarantee is
// prefix-of-insertion order, anchored at the descriptor). Quarantined
// files are left alone.
func cleanOrphans(fsys vfs.FS, dir string, d *descriptor) error {
	named := make(map[string]bool, len(d.Tablets))
	for _, rec := range d.Tablets {
		named[rec.path(dir)] = true
	}
	for _, dd := range []string{dir, d.ColdDir} {
		if dd == "" {
			continue
		}
		ents, err := fsys.ReadDir(dd)
		if err != nil {
			if dd == d.ColdDir && errors.Is(err, fs.ErrNotExist) {
				continue
			}
			return err
		}
		for _, e := range ents {
			name, path := e.Name(), filepath.Join(dd, e.Name())
			if e.IsDir() || (dd != dir && !ownsColdFile(d.Name, name)) {
				continue
			}
			if strings.HasSuffix(name, ".tmp") || (strings.HasSuffix(name, ".tab") && !named[path]) {
				if err := fsys.Remove(path); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// tabletFileName names tablet files by creation sequence.
func tabletFileName(seq uint64) string { return fmt.Sprintf("%012d.tab", seq) }

// coldFileName names a tiered tablet: the table's name qualifies it, since
// tables may share a cold directory.
func coldFileName(table string, seq uint64) string { return table + "-" + tabletFileName(seq) }

// ownsColdFile reports whether name, in a shared cold directory, is one of
// table's tablets or their temporary files.
func ownsColdFile(table, name string) bool {
	rest, ok := strings.CutPrefix(strings.TrimSuffix(name, ".tmp"), table+"-")
	seq, err := strconv.ParseUint(strings.TrimSuffix(rest, ".tab"), 10, 64)
	return ok && err == nil && tabletFileName(seq) == rest
}

// path is where rec's file lives: dir, the table's directory, or the cold
// directory it was tiered to (§6).
func (rec tabletRecord) path(dir string) string {
	if rec.Dir != "" {
		return filepath.Join(rec.Dir, rec.File)
	}
	return filepath.Join(dir, rec.File)
}
