package main

import (
	"sync/atomic"
	"time"

	"littletable/internal/vfs"
)

// meterFS wraps the filesystem every table of a run writes through. It
// always counts bytes and calls (the end-to-end write-amplification
// metrics need them and counting is a handful of atomic adds); it takes
// timestamps and records spans only while timed is set, which the traced
// run does on alternate epochs so the cost of timing is itself measured.
//
// It embeds vfs.FS, so everything except Create, Open and SyncDir passes
// straight through.
type meterFS struct {
	vfs.FS

	writeBytes, readBytes           atomic.Int64
	writeCalls, readCalls, syncCall atomic.Int64
	busyNs                          atomic.Int64

	timed atomic.Bool
	tr    *tracer // nil outside traced runs
}

func newMeterFS(inner vfs.FS, tr *tracer) *meterFS { return &meterFS{FS: inner, tr: tr} }

func (m *meterFS) Create(name string) (vfs.File, error) {
	f, err := m.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &meterFile{File: f, m: m}, nil
}

func (m *meterFS) Open(name string) (vfs.File, error) {
	f, err := m.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &meterFile{File: f, m: m}, nil
}

func (m *meterFS) SyncDir(name string) error {
	m.syncCall.Add(1)
	return m.FS.SyncDir(name)
}

// begin returns the call's start time, or the zero time when timing is off.
func (m *meterFS) begin() time.Time {
	if !m.timed.Load() {
		return time.Time{}
	}
	return time.Now()
}

// end closes a call begun at start: busy time and one span.
func (m *meterFS) end(name string, start time.Time) {
	if start.IsZero() {
		return
	}
	end := time.Now()
	m.busyNs.Add(int64(end.Sub(start)))
	m.tr.add(name, start, end)
}

type meterFile struct {
	vfs.File
	m *meterFS
}

func (f *meterFile) Write(p []byte) (int, error) {
	start := f.m.begin()
	n, err := f.File.Write(p)
	f.m.end("vfs.write", start)
	f.m.writeCalls.Add(1)
	f.m.writeBytes.Add(int64(n))
	return n, err
}

func (f *meterFile) ReadAt(p []byte, off int64) (int, error) {
	start := f.m.begin()
	n, err := f.File.ReadAt(p, off)
	f.m.end("vfs.read", start)
	f.m.readCalls.Add(1)
	f.m.readBytes.Add(int64(n))
	return n, err
}

func (f *meterFile) Sync() error {
	f.m.syncCall.Add(1)
	return f.File.Sync()
}
