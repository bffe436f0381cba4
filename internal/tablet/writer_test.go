package tablet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"littletable/internal/ltval"
	"littletable/internal/race"
	"littletable/internal/schema"
	"littletable/internal/vfs"
)

// TestWriterAppendDoesNotAllocate is the tier-1 guard on the write path:
// once its buffers have grown, a Writer allocates nothing for a row that
// fits the current block, and at most two objects for the row that
// completes one — the block index entry's copy of the last key, plus the
// block index's own amortised growth on the stage. Blocks are counted on
// the caller's goroutine: the row that completes a block leaves the block
// writer Append fills next empty.
func TestWriterAppendDoesNotAllocate(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	// A collection could empty the buffer pool between the warm-up tablet
	// and the measured one.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const rowsHint = 100000
	dir := t.TempDir()
	var w *Writer
	// One row and payload buffer, rewritten for every row; the payload
	// is hashed so blocks compress about as much as real ones.
	r := row(0, 0, 0, nil)
	payload := make([]byte, 0, 32)
	var i int64
	appendNext := func() {
		payload = strconv.AppendUint(append(payload[:0], "payload-"...), uint64(i)*0x9e3779b97f4a7c15, 16)
		r[0], r[1], r[2], r[3] = ltval.NewInt64(i/1000), ltval.NewInt64(i/100%10), ltval.NewTimestamp(i%100*1000), ltval.NewBlob(payload)
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
		i++
	}
	fillBlock := func() {
		appendNext()
		for w.bw.Count() > 0 {
			appendNext()
		}
	}
	// A first tablet of 40 blocks (about 1.5 MB on disk) grows the pooled
	// output buffer to its bound and both block writers to full blocks;
	// the measured tablet borrows them.
	create := func(name string) {
		var err error
		if w, err = Create(filepath.Join(dir, name), testSchema(t), WriterOptions{RowsHint: rowsHint}); err != nil {
			t.Fatal(err)
		}
	}
	create("warm.tab")
	for range 40 {
		fillBlock()
	}
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	i = 0
	create("t.tab")
	for range 4 {
		fillBlock()
	}
	if perRow := testing.AllocsPerRun(100, appendNext); perRow != 0 {
		t.Errorf("Append allocates %.2f objects per row within a block, want 0", perRow)
	}
	if w.bw.Count() == 0 {
		t.Fatal("a row measured as fitting its block completed one")
	}
	fillBlock()
	if perBlock := testing.AllocsPerRun(10, fillBlock); perBlock > 2 {
		t.Errorf("a full block allocates %.2f objects, want at most 2", perBlock)
	}
	if i > rowsHint {
		t.Fatalf("wrote %d rows past the %d-row hint; the hash buffer grew while measured", i, rowsHint)
	}
	if err := w.Abort(); err != nil {
		t.Fatal(err)
	}
}

// TestWriterSecondTabletAllocatesNoBuffers writes the same multi-block tablet
// twice and bounds the bytes the second write allocates. Both block
// writers and the output buffer come back from the first tablet, so what
// is left is per-tablet bookkeeping: the Writer, its file, its channels,
// the block index and the footer. The bound, 16 KiB, is a quarter of one
// block: one block writer's column storage, or the output buffer, freshly
// allocated would exceed it.
func TestWriterSecondTabletAllocatesNoBuffers(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const maxBytes = 16 << 10
	dir := t.TempDir()
	payload := make([]byte, 64)
	write := func(name string) (info *Info, blocks int) {
		w, err := Create(filepath.Join(dir, name), testSchema(t), WriterOptions{DisableBloom: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 6000; i++ {
			binary.LittleEndian.PutUint64(payload, uint64(i)*0x9e3779b97f4a7c15)
			if err := w.Append(row(i/1000, i/100%10, i%100*1000, payload)); err != nil {
				t.Fatal(err)
			}
			if w.bw.Count() == 0 {
				blocks++
			}
		}
		info, err = w.Close()
		if err != nil {
			t.Fatal(err)
		}
		return info, blocks + 1
	}
	first, blocks := write("first.tab")
	if blocks < 4 {
		t.Fatalf("the tablet has %d blocks; the test needs several", blocks)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	second, _ := write("second.tab")
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > maxBytes {
		t.Errorf("the second identical tablet allocated %d bytes, want at most %d", n, maxBytes)
	}
	// Reused block writers start each tablet with zeroed stats.
	if second.Enc != first.Enc || first.Enc.Blocks != int64(blocks) {
		t.Errorf("encoder stats %+v for the second tablet, %+v for the first; want equal, %d blocks each", second.Enc, first.Enc, blocks)
	}
}

// countFS counts the Write calls made on files it creates.
type countFS struct {
	vfs.FS
	writes atomic.Int64
}

func (c *countFS) Create(name string) (vfs.File, error) {
	f, err := c.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, fs: c}, nil
}

type countFile struct {
	vfs.File
	fs *countFS
}

func (f *countFile) Write(p []byte) (int, error) {
	f.fs.writes.Add(1)
	return f.File.Write(p)
}

// TestWriterStageLifecycle fails and abandons tablets while the stage has
// a block in flight. Each case must return its error, leave no file in
// the directory, and leave no goroutine behind once the writer is done.
func TestWriterStageLifecycle(t *testing.T) {
	// 3,000 incompressible 1 KiB payloads: about 3 MiB on disk, so the
	// first two of the writer's roughly 1 MiB write calls come from the
	// stage, and only the last one, carrying the footer, from Close.
	const rows = 3000
	payload := make([]byte, 1024)
	rowAt := func(i int) schema.Row {
		rand.New(rand.NewSource(int64(i))).Read(payload)
		return row(int64(i/1000), int64(i/100%10), int64(i%100*1000), payload)
	}
	// write appends rows like core.writeTablet does, stopping at the
	// first error, and returns it. After a failed Append it checks that
	// the failure sticks, then aborts; otherwise it closes.
	write := func(t *testing.T, fsys vfs.FS, path string) (appendErr, closeErr error) {
		w, err := Create(path, testSchema(t), WriterOptions{FS: fsys})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			if appendErr = w.Append(rowAt(i)); appendErr != nil {
				if err := w.Append(rowAt(i + 1)); !errors.Is(err, appendErr) {
					t.Errorf("Append after a stage failure = %v, want %v", err, appendErr)
				}
				if _, err := w.Close(); !errors.Is(err, appendErr) {
					t.Errorf("Close after a stage failure = %v, want %v", err, appendErr)
				}
				return appendErr, w.Abort()
			}
		}
		_, closeErr = w.Close()
		return nil, closeErr
	}
	// settled checks that dir is empty and that the goroutine count falls
	// back to base.
	settled := func(t *testing.T, dir string, base int) {
		t.Helper()
		if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
			t.Errorf("directory holds %v (%v), want nothing", ents, err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Errorf("%d goroutines after the writer finished, want %d", n, base)
		}
	}

	counter := &countFS{FS: vfs.OsFS{}}
	if _, err := write(t, counter, filepath.Join(t.TempDir(), "clean.tab")); err != nil {
		t.Fatal(err)
	}
	calls := int(counter.writes.Load())
	if calls < 3 {
		t.Fatalf("a clean write made %d write calls; the test needs at least 3", calls)
	}

	for _, tc := range []struct {
		name    string
		nth     int
		inStage bool
	}{
		{"stage_write", 2, true},
		{"footer_write", calls, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			dir := t.TempDir()
			fsys := vfs.NewFault(vfs.OsFS{})
			fsys.Inject(&vfs.Fault{Op: vfs.OpWrite, Nth: tc.nth})
			appendErr, closeErr := write(t, fsys, filepath.Join(dir, "t.tab"))
			if tc.inStage {
				if !errors.Is(appendErr, vfs.ErrInjected) || closeErr != nil {
					t.Errorf("Append = %v and Abort = %v, want the injected fault from Append", appendErr, closeErr)
				}
			} else if appendErr != nil || !errors.Is(closeErr, vfs.ErrInjected) {
				t.Errorf("Append = %v and Close = %v, want the injected fault from Close", appendErr, closeErr)
			}
			if fsys.Injected() != 1 {
				t.Errorf("%d faults fired, want 1", fsys.Injected())
			}
			settled(t, dir, base)
		})
	}

	t.Run("abort_mid_tablet", func(t *testing.T) {
		base := runtime.NumGoroutine()
		dir := t.TempDir()
		w, err := Create(filepath.Join(dir, "t.tab"), testSchema(t), WriterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows/2; i++ {
			if err := w.Append(rowAt(i)); err != nil {
				t.Fatal(err)
			}
		}
		if !w.inFlight {
			t.Fatal("no block in flight when aborting")
		}
		if err := w.Abort(); err != nil {
			t.Fatal(err)
		}
		if err := w.Append(rowAt(rows / 2)); !errors.Is(err, ErrClosed) {
			t.Errorf("Append after Abort = %v, want ErrClosed", err)
		}
		if _, err := w.Close(); !errors.Is(err, ErrClosed) {
			t.Errorf("Close after Abort = %v, want ErrClosed", err)
		}
		settled(t, dir, base)
	})
}

// TestWriterOrderCheckWithReusedRowBuffer appends rows whose string key
// lives in one caller buffer that is scribbled over after every Append.
// The order check, the block index's last keys, the Bloom filter and
// SeekRange must all see each row as it was appended.
func TestWriterOrderCheckWithReusedRowBuffer(t *testing.T) {
	sc := schema.MustNew([]schema.Column{
		{Name: "name", Type: ltval.String},
		{Name: "ts", Type: ltval.Timestamp},
		{Name: "v", Type: ltval.Int64},
	}, []string{"name", "ts"})
	path := filepath.Join(t.TempDir(), "t.tab")
	w, err := Create(path, sc, WriterOptions{BlockSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 16)
	r := make(schema.Row, 3)
	appendReused := func(name string, ts, v int64) error {
		buf = append(buf[:0], name...)
		r[0], r[1], r[2] = ltval.Value{Type: ltval.String, Bytes: buf}, ltval.NewTimestamp(ts), ltval.NewInt64(v)
		err := w.Append(r)
		for j := range buf {
			buf[j] = 0xff
		}
		return err
	}
	var want []schema.Row
	for i := int64(0); i < 300; i++ {
		name := fmt.Sprintf("dev-%03d", i/10)
		if err := appendReused(name, i%10, i); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		want = append(want, schema.Row{ltval.NewString(name), ltval.NewTimestamp(i % 10), ltval.NewInt64(i)})
	}
	for _, k := range []struct {
		name string
		ts   int64
	}{{"dev-029", 9}, {"dev-029", 8}, {"dev-028", 9}} {
		if err := appendReused(k.name, k.ts, -1); !errors.Is(err, ErrOutOfOrder) {
			t.Errorf("Append(%s, %d) after (dev-029, 9) = %v, want ErrOutOfOrder", k.name, k.ts, err)
		}
	}
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	tab, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	if tab.BlockCount() < 3 {
		t.Fatalf("%d blocks; the test needs several", tab.BlockCount())
	}
	end := 0
	for i, bm := range tab.ft.blocks {
		end += int(bm.rowCount)
		if k := sc.AppendKey(nil, want[end-1]); !bytes.Equal(bm.lastKey, k) {
			t.Errorf("block %d: index last key %x, want %x", i, bm.lastKey, k)
		}
	}
	if end != len(want) {
		t.Fatalf("blocks hold %d rows, want %d", end, len(want))
	}
	for _, r := range want {
		if !tab.MayContainKey(sc.AppendKey(nil, r)) {
			t.Errorf("Bloom filter misses %v", sc.KeyOf(r))
		}
		k := sc.KeyOf(r)
		c, err := tab.SeekRange(k, k, true, ReadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !c.Next() || sc.CompareKeys(c.Row(), r) != 0 || c.Row()[2].Int != r[2].Int {
			t.Errorf("SeekRange(%v) did not find its row: %v", k, c.Err())
		}
		c.Close()
	}
}
