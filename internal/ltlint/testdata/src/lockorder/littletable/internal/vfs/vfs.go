// Package vfs stands in for the filesystem boundary: lockorder does not
// walk it, and counts a call to its crash-safe writer as durable I/O.
package vfs

type FS interface {
	Create(path string) error
	Rename(from, to string) error
	SyncDir(dir string) error
}

// WriteFileAtomic owns the temp→Sync→Rename→SyncDir recipe.
func WriteFileAtomic(fsys FS, path string, data []byte, durable bool) error {
	if err := fsys.Create(path + ".tmp"); err != nil {
		return err
	}
	return fsys.Rename(path+".tmp", path)
}
