package vfs

import (
	"io"
	"path/filepath"
)

// AtomicFile is the one way a durable file is written (§3.2's descriptor
// discipline): Create <path>.tmp, Write, Sync, Close, Rename onto path,
// SyncDir, with the two syncs only when durable. A crash leaves the
// previous file or the whole new one under path, never part of one. Any
// failure up to the rename removes <path>.tmp and leaves path as it was;
// after a failed SyncDir the new file stays, as a rename cannot be undone.
// ltlint's atomicpersist rule reports any other Create or Rename.
type AtomicFile struct {
	fsys    FS
	path    string
	f       File
	durable bool
	done    bool
}

// CreateAtomic starts writing path: bytes go to <path>.tmp until Commit.
func CreateAtomic(fsys FS, path string, durable bool) (*AtomicFile, error) {
	f, err := fsys.Create(path + ".tmp")
	if err != nil {
		return nil, err
	}
	return &AtomicFile{fsys: fsys, path: path, f: f, durable: durable}, nil
}

// Write appends p to the temporary file.
func (a *AtomicFile) Write(p []byte) (int, error) { return a.f.Write(p) }

// Commit puts the file in place: Sync, Close, Rename, SyncDir.
func (a *AtomicFile) Commit() error {
	a.done = true
	var err error
	if a.durable {
		err = a.f.Sync()
	}
	if cerr := a.f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = Rename(a.fsys, a.path+".tmp", a.path, a.durable)
	}
	if err != nil {
		a.fsys.Remove(a.path + ".tmp")
	}
	return err
}

// Abort closes and removes the temporary file; after Commit it does nothing.
func (a *AtomicFile) Abort() error {
	if a.done {
		return nil
	}
	a.done = true
	a.f.Close()
	return a.fsys.Remove(a.path + ".tmp")
}

// WriteFileAtomic replaces path with data through an AtomicFile.
func WriteFileAtomic(fsys FS, path string, data []byte, durable bool) error {
	a, err := CreateAtomic(fsys, path, durable)
	if err != nil {
		return err
	}
	if _, err := a.Write(data); err != nil {
		a.Abort()
		return err
	}
	return a.Commit()
}

// CopyFileAtomic replaces dst with a copy of src through an AtomicFile and
// returns the bytes copied.
func CopyFileAtomic(fsys FS, src, dst string, durable bool) (int64, error) {
	in, err := fsys.Open(src)
	if err != nil {
		return 0, err
	}
	defer in.Close()
	st, err := in.Stat()
	if err != nil {
		return 0, err
	}
	a, err := CreateAtomic(fsys, dst, durable)
	if err != nil {
		return 0, err
	}
	n, err := io.Copy(a, io.NewSectionReader(in, 0, st.Size()))
	if err != nil {
		a.Abort()
		return 0, err
	}
	return n, a.Commit()
}

// Rename moves oldname onto newname and, when durable, fsyncs newname's
// directory: a rename is not durable until the directory is.
func Rename(fsys FS, oldname, newname string, durable bool) error {
	if err := fsys.Rename(oldname, newname); err != nil || !durable {
		return err
	}
	return fsys.SyncDir(filepath.Dir(newname))
}
