package core

import (
	"sync"

	"littletable/internal/vfs"
)

type V struct {
	mu  sync.Mutex
	fs  vfs.FS
	dir string
}

// writeUnderLock calls the crash-safe writer with the lock held: the
// finding lands here, not inside vfs.
func (v *V) writeUnderLock(path string) { // want `writeUnderLock performs durable file I/O \(Create/Rename/SyncDir\) while littletable/internal/core\.V\.mu is held locally`
	v.mu.Lock()
	vfs.WriteFileAtomic(v.fs, path, nil, true)
	v.mu.Unlock()
}
