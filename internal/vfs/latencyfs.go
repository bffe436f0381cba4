package vfs

import (
	"time"
)

// LatencyFS wraps an FS, delaying every write to a file opened with
// Create by a fixed amount. It models device write latency on an FS whose
// writes are otherwise near-instant (MemFS, a page cache), so a test can
// hold several background merges mid-write at once.
type LatencyFS struct {
	FS
	// WriteDelay is added to every File.Write call on files opened with
	// Create.
	WriteDelay time.Duration
}

// Create implements FS, wrapping the file so its writes are delayed.
func (l LatencyFS) Create(name string) (File, error) {
	f, err := l.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &latencyFile{File: f, writeDelay: l.WriteDelay}, nil
}

type latencyFile struct {
	File
	writeDelay time.Duration
}

func (f *latencyFile) Write(p []byte) (int, error) {
	if f.writeDelay > 0 {
		time.Sleep(f.writeDelay)
	}
	return f.File.Write(p)
}
