// Package vfs abstracts the filesystem operations LittleTable performs, so
// the storage engine can run against the real OS filesystem in production
// and against fault-injecting or crash-simulating implementations in tests.
//
// The interface is deliberately small: the engine only creates files, writes
// them sequentially, reads them randomly, renames them into place, and lists
// or removes directory entries. One operation has no os.* equivalent:
// SyncDir, which fsyncs a directory itself. On ext4 (and most journaling
// filesystems) a rename is not durable until the parent directory's metadata
// reaches disk, so every commit-by-rename in the engine is followed by a
// SyncDir when durability is requested: AtomicFile is that recipe.
package vfs

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"syscall"
)

// File is an open file handle. Tablet writers use Write/Sync/Close; tablet
// readers use ReadAt/Stat/Close. Implementations must allow concurrent
// ReadAt calls.
type File interface {
	io.Writer
	io.ReaderAt
	io.Closer
	// Sync flushes the file's data to stable storage.
	Sync() error
	// Stat returns file metadata (the engine only uses the size).
	Stat() (fs.FileInfo, error)
}

// FS is the filesystem surface the engine runs on.
type FS interface {
	// Create opens a new file for writing, truncating any existing one.
	Create(name string) (File, error)
	// Open opens an existing file for reading.
	Open(name string) (File, error)
	// Rename atomically replaces newname with oldname. Durability requires
	// a subsequent SyncDir on the parent directory.
	Rename(oldname, newname string) error
	// Remove deletes a file.
	Remove(name string) error
	// RemoveAll deletes a directory tree.
	RemoveAll(path string) error
	// MkdirAll creates a directory and any missing parents.
	MkdirAll(path string) error
	// ReadDir lists a directory.
	ReadDir(name string) ([]fs.DirEntry, error)
	// Stat returns metadata for the named file.
	Stat(name string) (fs.FileInfo, error)
	// SyncDir fsyncs the directory itself, making renames, creates, and
	// removes within it durable.
	SyncDir(name string) error
}

// OsFS is the passthrough implementation over the real filesystem.
type OsFS struct{}

// Create implements FS.
func (OsFS) Create(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
}

// Open implements FS.
func (OsFS) Open(name string) (File, error) { return os.Open(name) }

// Rename implements FS.
func (OsFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

// Remove implements FS.
func (OsFS) Remove(name string) error { return os.Remove(name) }

// RemoveAll implements FS.
func (OsFS) RemoveAll(path string) error { return os.RemoveAll(path) }

// MkdirAll implements FS.
func (OsFS) MkdirAll(path string) error { return os.MkdirAll(path, 0o755) }

// ReadDir implements FS.
func (OsFS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }

// Stat implements FS.
func (OsFS) Stat(name string) (fs.FileInfo, error) { return os.Stat(name) }

// SyncDir implements FS: open the directory and fsync it. Filesystems that
// do not support fsync on directories report fs.ErrInvalid, which is
// ignored — there is nothing more a userspace program can do there.
func (OsFS) SyncDir(name string) error {
	d, err := os.Open(name)
	if err != nil {
		return err
	}
	err = d.Sync()
	d.Close()
	if err != nil && (errors.Is(err, fs.ErrInvalid) || errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP)) {
		return nil
	}
	return err
}

// ReadFile reads the whole named file through fsys.
func ReadFile(fsys FS, name string) ([]byte, error) {
	f, err := fsys.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data := make([]byte, st.Size())
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, st.Size()), data); err != nil {
		return nil, err
	}
	return data, nil
}
