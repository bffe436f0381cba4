// Package vfs stands in for the engine's filesystem boundary.
package vfs

type FS interface {
	Create(path string) (File, error)
	Rename(from, to string) error
	SyncDir(dir string) error
}

type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}
