// Package archive implements LittleTable's continuous archival (§3.5):
// every 10 minutes Dashboard runs an rsync-like sync from shard to spare
// "repeatedly until a sync completes without copying any files, indicating
// that shard and spare have identical contents". The approach works
// because tablets are immutable once written and a copy-nothing pass is
// quick relative to the rate of new tablets.
//
// Sync is an incremental one-way directory mirror: files are copied when
// the destination is missing them or differs in size or content hash, and
// destination files absent from the source are deleted (tablets removed by
// merges or TTL expiry must disappear from the spare too).
package archive

import (
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"littletable/internal/vfs"
)

// SyncStats summarizes one sync pass.
type SyncStats struct {
	FilesCopied  int
	FilesDeleted int
	BytesCopied  int64
	FilesSame    int
}

// Clean reports whether the pass copied and deleted nothing: the
// convergence signal §3.5's loop waits for.
func (s SyncStats) Clean() bool { return s.FilesCopied == 0 && s.FilesDeleted == 0 }

// Sync mirrors src into dst once on the real filesystem, without fsync.
func Sync(src, dst string) (SyncStats, error) {
	return SyncFS(vfs.OsFS{}, src, dst, false)
}

// SyncFS mirrors src into dst once through fsys and reports what it did.
// Paths are created as needed. Temporary files (".tmp" suffix) are skipped:
// they are in-flight tablet writes that the next pass will see completed or
// gone. With durable, each copied file is fsynced before its rename and the
// target directory after, so a power cut on the spare cannot leave a copy
// that the next pass wrongly believes complete.
func SyncFS(fsys vfs.FS, src, dst string, durable bool) (SyncStats, error) {
	var stats SyncStats
	if err := fsys.MkdirAll(dst); err != nil {
		return stats, err
	}
	srcFiles, err := listFiles(fsys, src)
	if err != nil {
		return stats, err
	}
	dstFiles, err := listFiles(fsys, dst)
	if err != nil {
		return stats, err
	}
	// Copy new/changed files.
	rels := make([]string, 0, len(srcFiles))
	for rel := range srcFiles {
		rels = append(rels, rel)
	}
	sort.Strings(rels)
	for _, rel := range rels {
		sfi := srcFiles[rel]
		dfi, ok := dstFiles[rel]
		if ok && dfi.Size() == sfi.Size() {
			same, err := sameContent(fsys, filepath.Join(src, rel), filepath.Join(dst, rel))
			if err != nil {
				return stats, err
			}
			if same {
				stats.FilesSame++
				continue
			}
		}
		to := filepath.Join(dst, rel)
		if err := fsys.MkdirAll(filepath.Dir(to)); err != nil {
			return stats, fmt.Errorf("archive: copy %s: %w", rel, err)
		}
		n, err := vfs.CopyFileAtomic(fsys, filepath.Join(src, rel), to, durable)
		if err != nil {
			return stats, fmt.Errorf("archive: copy %s: %w", rel, err)
		}
		stats.FilesCopied++
		stats.BytesCopied += n
	}
	// Delete files gone from the source.
	for rel := range dstFiles {
		if _, ok := srcFiles[rel]; !ok {
			if err := fsys.Remove(filepath.Join(dst, rel)); err != nil {
				return stats, err
			}
			stats.FilesDeleted++
		}
	}
	return stats, nil
}

// SyncUntilClean runs Sync passes until one copies nothing, as §3.5
// describes, up to maxPasses (0 = default 10).
func SyncUntilClean(src, dst string, maxPasses int) (passes int, err error) {
	return SyncUntilCleanFS(vfs.OsFS{}, src, dst, maxPasses, false)
}

// SyncUntilCleanFS is SyncUntilClean through an explicit filesystem.
func SyncUntilCleanFS(fsys vfs.FS, src, dst string, maxPasses int, durable bool) (passes int, err error) {
	if maxPasses <= 0 {
		maxPasses = 10
	}
	for passes = 1; passes <= maxPasses; passes++ {
		stats, err := SyncFS(fsys, src, dst, durable)
		if err != nil {
			return passes, err
		}
		if stats.Clean() {
			return passes, nil
		}
	}
	return maxPasses, fmt.Errorf("archive: no clean pass within %d attempts", maxPasses)
}

// listFiles returns relative path → FileInfo for all regular files under
// root, excluding in-flight temporaries, by recursive ReadDir.
func listFiles(fsys vfs.FS, root string) (map[string]fs.FileInfo, error) {
	out := map[string]fs.FileInfo{}
	var walk func(dir, rel string) error
	walk = func(dir, rel string) error {
		ents, err := fsys.ReadDir(dir)
		if err != nil {
			if os.IsNotExist(err) {
				return nil // raced a merge/TTL deletion; next pass settles it
			}
			return err
		}
		for _, e := range ents {
			name := e.Name()
			childRel := name
			if rel != "" {
				childRel = filepath.Join(rel, name)
			}
			if e.IsDir() {
				if err := walk(filepath.Join(dir, name), childRel); err != nil {
					return err
				}
				continue
			}
			if strings.HasSuffix(name, ".tmp") {
				continue
			}
			fi, err := e.Info()
			if err != nil {
				if os.IsNotExist(err) {
					continue // deleted between list and stat
				}
				return err
			}
			out[childRel] = fi
		}
		return nil
	}
	if err := walk(root, ""); err != nil {
		return out, err
	}
	return out, nil
}

// sameContent compares files by CRC32C, cheaper than byte comparison for
// the common same case and collision-safe enough for a mirror that re-runs
// until clean.
func sameContent(fsys vfs.FS, a, b string) (bool, error) {
	ha, err := fileCRC(fsys, a)
	if err != nil {
		return false, err
	}
	hb, err := fileCRC(fsys, b)
	if err != nil {
		return false, err
	}
	return ha == hb, nil
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func fileCRC(fsys vfs.FS, path string) (uint32, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	h := crc32.New(crcTable)
	if _, err := io.Copy(h, io.NewSectionReader(f, 0, st.Size())); err != nil {
		return 0, err
	}
	return h.Sum32(), nil
}
