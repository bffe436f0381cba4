package vfs

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"
)

// atomicWriters are the two ways a caller replaces a file through the
// recipe: from bytes in memory and as a copy of another file.
var atomicWriters = []struct {
	name  string
	write func(t *testing.T, fsys FS, path string, data []byte) error
}{
	{"write", func(t *testing.T, fsys FS, path string, data []byte) error {
		return WriteFileAtomic(fsys, path, data, true)
	}},
	{"copy", func(t *testing.T, fsys FS, path string, data []byte) error {
		src := filepath.Join(filepath.Dir(path), "source")
		writeAll(t, fsys, src, data, false)
		_, err := CopyFileAtomic(fsys, src, path, true)
		return err
	}},
}

// TestAtomicWriteFaultAtEachStep fails each step of the recipe once. Every
// case reports the error and leaves no temporary file. Up to the rename the
// previous target is byte-identical; a failed directory sync comes after
// the rename, which cannot be taken back, so the target then holds the
// whole new file.
func TestAtomicWriteFaultAtEachStep(t *testing.T) {
	const path = "/d/target"
	old, next := []byte("previous contents"), []byte("replacement contents, longer")
	for _, w := range atomicWriters {
		for _, op := range []Op{OpCreate, OpWrite, OpSync, OpClose, OpRename, OpSyncDir} {
			t.Run(fmt.Sprintf("%s/%s", w.name, op), func(t *testing.T) {
				mem := NewMem()
				if err := mem.MkdirAll("/d"); err != nil {
					t.Fatal(err)
				}
				writeAll(t, mem, path, old, true)
				ffs := NewFault(mem)
				match := "target" // a directory sync names the directory
				if op == OpSyncDir {
					match = "/d"
				}
				ffs.Inject(&Fault{Op: op, Path: match})
				if err := w.write(t, ffs, path, next); !errors.Is(err, ErrInjected) {
					t.Fatalf("error %v, want the injected fault", err)
				}
				if ffs.Injected() != 1 {
					t.Fatalf("%d faults fired, want 1", ffs.Injected())
				}
				if _, err := mem.Stat(path + ".tmp"); err == nil {
					t.Error("the temporary file was left behind")
				}
				want := old
				if op == OpSyncDir {
					want = next
				}
				if got, err := ReadFile(mem, path); err != nil || string(got) != string(want) {
					t.Errorf("target holds %q (%v), want %q", got, err, want)
				}
			})
		}
	}
}

// TestAtomicWriteCrashAtEachBarrier crashes at every durability barrier of
// one replacement: each crash image holds the previous file or the whole
// new one under the target name, and the image after the last barrier
// holds the new one.
func TestAtomicWriteCrashAtEachBarrier(t *testing.T) {
	const path = "/d/target"
	old, next := []byte("previous contents"), []byte("replacement contents, longer")
	for _, w := range atomicWriters {
		t.Run(w.name, func(t *testing.T) {
			mem := NewMem()
			if err := mem.MkdirAll("/d"); err != nil {
				t.Fatal(err)
			}
			writeAll(t, mem, path, old, true)
			if err := mem.SyncDir("/d"); err != nil {
				t.Fatal(err)
			}
			var images []*MemFS
			mem.SetBarrierHook(func(op, p string) { images = append(images, mem.CrashClone()) })
			if err := w.write(t, mem, path, next); err != nil {
				t.Fatal(err)
			}
			mem.SetBarrierHook(nil)
			if len(images) < 3 {
				t.Fatalf("%d barriers, want sync, rename and syncdir at least", len(images))
			}
			for i, img := range images {
				got, err := ReadFile(img, path)
				if err != nil || (string(got) != string(old) && string(got) != string(next)) {
					t.Fatalf("crash at barrier %d: target %q (%v), want the old or the new file", i, got, err)
				}
			}
			if got, _ := ReadFile(images[len(images)-1], path); string(got) != string(next) {
				t.Errorf("after the last barrier the target holds %q, want the new file", got)
			}
		})
	}
}
