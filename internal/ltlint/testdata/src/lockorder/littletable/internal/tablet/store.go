package tablet

type FS interface {
	SyncDir(dir string) error
}

// Store commits tablets into one directory.
type Store struct {
	fs  FS
	dir string
}

// Commit fsyncs the directory. It is innocent alone; core.U.install
// calls it across the package boundary with U.mu held.
func (s *Store) Commit() error { // want `Commit performs durable file I/O \(Create/Rename/SyncDir\) while littletable/internal/core\.U\.mu is held by caller littletable/internal/core\.U\.install`
	return s.fs.SyncDir(s.dir)
}
