package vfs

import (
	"errors"
	"io/fs"
	"strings"
	"sync"
	"sync/atomic"
)

// ErrInjected is the default error returned by injected faults.
var ErrInjected = errors.New("vfs: injected fault")

// Op identifies a filesystem operation for fault matching.
type Op string

// Operations a Fault can target.
const (
	OpCreate  Op = "create"
	OpOpen    Op = "open"
	OpRead    Op = "read"
	OpWrite   Op = "write"
	OpSync    Op = "sync"
	OpClose   Op = "close"
	OpSyncDir Op = "syncdir"
	OpRename  Op = "rename"
	OpRemove  Op = "remove"
	OpReadDir Op = "readdir"
	OpStat    Op = "stat"
)

// Fault describes one injected failure.
type Fault struct {
	// Op is the operation to fail.
	Op Op
	// Path, when non-empty, restricts the fault to paths containing it.
	Path string
	// Nth fires the fault on the Nth matching operation (1-based);
	// 0 behaves as 1.
	Nth int
	// Err is returned by the failed operation; nil means ErrInjected.
	Err error
	// TearBytes, for OpWrite, writes only that many bytes of the failing
	// write through to the underlying file before returning the error —
	// a torn write, as a power cut mid-write produces.
	TearBytes int
	// Persistent keeps the fault firing on every matching operation from
	// the Nth onward, instead of only once.
	Persistent bool

	remaining int
}

// FaultFS wraps an FS and fails operations according to injected faults.
// It is safe for concurrent use.
type FaultFS struct {
	fsys     FS
	mu       sync.Mutex
	faults   []*Fault
	injected atomic.Int64
}

// NewFault wraps fsys with an empty fault set.
func NewFault(fsys FS) *FaultFS { return &FaultFS{fsys: fsys} }

// Inject adds a fault. The same Fault value must not be injected twice.
func (f *FaultFS) Inject(fl *Fault) {
	f.mu.Lock()
	fl.remaining = fl.Nth
	if fl.remaining <= 0 {
		fl.remaining = 1
	}
	f.faults = append(f.faults, fl)
	f.mu.Unlock()
}

// Clear removes all pending faults.
func (f *FaultFS) Clear() {
	f.mu.Lock()
	f.faults = nil
	f.mu.Unlock()
}

// Injected reports how many faults have fired.
func (f *FaultFS) Injected() int64 { return f.injected.Load() }

// check returns the firing fault for (op, path), or nil.
func (f *FaultFS) check(op Op, path string) *Fault {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, fl := range f.faults {
		if fl.Op != op {
			continue
		}
		if fl.Path != "" && !strings.Contains(path, fl.Path) {
			continue
		}
		fl.remaining--
		if fl.remaining > 0 {
			continue
		}
		if fl.Persistent {
			fl.remaining = 0 // stay at the firing point
		} else {
			f.faults = append(f.faults[:i], f.faults[i+1:]...)
		}
		f.injected.Add(1)
		return fl
	}
	return nil
}

func (fl *Fault) error() error {
	if fl.Err != nil {
		return fl.Err
	}
	return ErrInjected
}

// Create implements FS.
func (f *FaultFS) Create(name string) (File, error) {
	if fl := f.check(OpCreate, name); fl != nil {
		return nil, fl.error()
	}
	file, err := f.fsys.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, name: name, File: file}, nil
}

// Open implements FS.
func (f *FaultFS) Open(name string) (File, error) {
	if fl := f.check(OpOpen, name); fl != nil {
		return nil, fl.error()
	}
	file, err := f.fsys.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, name: name, File: file}, nil
}

// Rename implements FS.
func (f *FaultFS) Rename(oldname, newname string) error {
	if fl := f.check(OpRename, newname); fl != nil {
		return fl.error()
	}
	return f.fsys.Rename(oldname, newname)
}

// Remove implements FS.
func (f *FaultFS) Remove(name string) error {
	if fl := f.check(OpRemove, name); fl != nil {
		return fl.error()
	}
	return f.fsys.Remove(name)
}

// RemoveAll implements FS.
func (f *FaultFS) RemoveAll(path string) error { return f.fsys.RemoveAll(path) }

// MkdirAll implements FS.
func (f *FaultFS) MkdirAll(path string) error { return f.fsys.MkdirAll(path) }

// ReadDir implements FS.
func (f *FaultFS) ReadDir(name string) ([]fs.DirEntry, error) {
	if fl := f.check(OpReadDir, name); fl != nil {
		return nil, fl.error()
	}
	return f.fsys.ReadDir(name)
}

// Stat implements FS.
func (f *FaultFS) Stat(name string) (fs.FileInfo, error) {
	if fl := f.check(OpStat, name); fl != nil {
		return nil, fl.error()
	}
	return f.fsys.Stat(name)
}

// SyncDir implements FS.
func (f *FaultFS) SyncDir(name string) error {
	if fl := f.check(OpSyncDir, name); fl != nil {
		return fl.error()
	}
	return f.fsys.SyncDir(name)
}

// faultFile applies read/write/sync faults by the opening path.
type faultFile struct {
	fs   *FaultFS
	name string
	File
}

func (f *faultFile) Write(p []byte) (int, error) {
	if fl := f.fs.check(OpWrite, f.name); fl != nil {
		n := 0
		if fl.TearBytes > 0 {
			tear := fl.TearBytes
			if tear > len(p) {
				tear = len(p)
			}
			n, _ = f.File.Write(p[:tear])
		}
		return n, fl.error()
	}
	return f.File.Write(p)
}

func (f *faultFile) ReadAt(p []byte, off int64) (int, error) {
	if fl := f.fs.check(OpRead, f.name); fl != nil {
		return 0, fl.error()
	}
	return f.File.ReadAt(p, off)
}

// Close closes the underlying file even when a fault fires, so an injected
// close error leaks no handle.
func (f *faultFile) Close() error {
	err := f.File.Close()
	if fl := f.fs.check(OpClose, f.name); fl != nil {
		return fl.error()
	}
	return err
}

func (f *faultFile) Sync() error {
	if fl := f.fs.check(OpSync, f.name); fl != nil {
		return fl.error()
	}
	return f.File.Sync()
}
