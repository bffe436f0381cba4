package tablet

import (
	"fmt"

	"littletable/internal/block"
	"littletable/internal/bloom"
	"littletable/internal/ltval"
	"littletable/internal/lzf"
	"littletable/internal/schema"
	"littletable/internal/vfs"
)

// outBufSize bounds the writer's output buffer: records are framed into
// it and it is written out before it would pass 1 MB, so a large tablet
// costs about one write call per MB and a small one never holds a full MB.
const outBufSize = 1 << 20

// WriterOptions tune tablet creation. The zero value gives the paper's
// defaults.
type WriterOptions struct {
	// BlockSize is the uncompressed block target; default block.TargetSize
	// (64 kB, §3.2).
	BlockSize int
	// DisableCompression skips lzf, for benchmarks isolating disk cost.
	DisableCompression bool
	// DisableBloom skips the per-tablet Bloom filter (§3.4.5).
	DisableBloom bool
	// Sync fsyncs the file before rename on Close, and the parent directory
	// after it (a rename without a directory fsync is not durable on ext4).
	// LittleTable's durability story tolerates losing recent tablets, so
	// syncing is optional and the engine syncs only at descriptor-update
	// boundaries.
	Sync bool

	// FS abstracts filesystem access; nil means the real OS filesystem.
	// Tests inject fault-injecting or crash-simulating implementations.
	FS vfs.FS

	// RowsHint is how many rows the caller expects to append, or an upper
	// bound on it; zero means unknown. It only presizes the Bloom filter's
	// hash buffer and never changes the output.
	RowsHint int
}

func (o *WriterOptions) fsys() vfs.FS {
	if o.FS != nil {
		return o.FS
	}
	return vfs.OsFS{}
}

func (o *WriterOptions) blockSize() int {
	if o.BlockSize > 0 {
		return o.BlockSize
	}
	return block.TargetSize
}

// Info summarizes a written tablet for the table descriptor.
type Info struct {
	Path     string
	RowCount int64
	MinTs    int64
	MaxTs    int64
	Bytes    int64 // on-disk size
	// Enc reports what the block encoder did, for the engine's counters.
	Enc block.EncodeStats
}

// Writer streams rows in ascending primary-key order into a new tablet
// file. The file is written under a temporary name and atomically renamed
// into place on Close, so a crash mid-flush leaves no partial tablet
// visible (§3.2's descriptor update makes it durable).
//
// A Writer owns all of its working memory for the tablet's life: Append
// copies what it keeps of a row (the key, the block's cells), so the
// caller may reuse the row's storage as soon as Append returns, and it
// allocates nothing per row once its buffers have grown.
type Writer struct {
	path    string
	tmpPath string
	fsys    vfs.FS
	f       vfs.File
	opts    WriterOptions
	sc      *schema.Schema

	bw      *block.Writer
	ft      footer
	off     int64  // file offset of the next record
	out     []byte // framed records not yet written to f; see reserve
	lastKey []ltval.Value
	keyBuf  []byte // backs lastKey's byte cells
	keyEnc  []byte // AppendKey encoding of the last row appended
	blkMin  int64
	blkMax  int64
	hashes  []uint64 // h1,h2 pairs for the bloom filter
	closed  bool
}

// Create opens a tablet writer for rows of schema sc at path.
func Create(path string, sc *schema.Schema, opts WriterOptions) (*Writer, error) {
	tmp := path + ".tmp"
	fsys := opts.fsys()
	f, err := fsys.Create(tmp)
	if err != nil {
		return nil, err
	}
	w := &Writer{
		path:    path,
		tmpPath: tmp,
		fsys:    fsys,
		f:       f,
		opts:    opts,
		sc:      sc,
		bw:      block.NewWriter(sc),
		ft:      footer{sc: sc, version: formatVersion},
	}
	if !opts.DisableBloom && opts.RowsHint > 0 {
		w.hashes = make([]uint64, 0, 2*opts.RowsHint)
	}
	return w, nil
}

// Append adds row, which must be in strictly ascending key order relative
// to all previous rows.
func (w *Writer) Append(row schema.Row) error {
	if w.closed {
		return ErrClosed
	}
	if w.ft.rowCount > 0 && w.sc.CompareRowToKey(row, w.lastKey) <= 0 {
		return fmt.Errorf("%w: key %v after %v", ErrOutOfOrder, w.sc.KeyOf(row), w.lastKey)
	}
	ts := w.sc.Ts(row)
	if w.ft.rowCount == 0 {
		w.ft.minTs, w.ft.maxTs = ts, ts
	} else {
		if ts < w.ft.minTs {
			w.ft.minTs = ts
		}
		if ts > w.ft.maxTs {
			w.ft.maxTs = ts
		}
	}
	if w.bw.Count() == 0 {
		w.blkMin, w.blkMax = ts, ts
	} else {
		if ts < w.blkMin {
			w.blkMin = ts
		}
		if ts > w.blkMax {
			w.blkMax = ts
		}
	}
	w.bw.Append(row)
	w.ft.rowCount++
	// One key encoding feeds the Bloom hash and, if this row ends the
	// block, the block's last-key index entry.
	w.keyEnc = w.sc.AppendKey(w.keyEnc[:0], row)
	if !w.opts.DisableBloom {
		h1, h2 := bloom.Hash(w.keyEnc)
		w.hashes = append(w.hashes, h1, h2)
	}
	w.lastKey, w.keyBuf = w.sc.CopyKey(w.lastKey, w.keyBuf, row)
	if w.bw.SizeBytes() >= w.opts.blockSize() {
		return w.flushBlock()
	}
	return nil
}

func (w *Writer) flushBlock() error {
	if w.bw.Count() == 0 {
		return nil
	}
	rowCount := w.bw.Count()
	img, enc := w.bw.Finish()
	off := w.off
	diskLen, err := w.writeRecord(img)
	if err != nil {
		return err
	}
	w.ft.blocks = append(w.ft.blocks, blockMeta{
		offset:   off,
		diskLen:  int32(diskLen),
		rawLen:   int32(len(img)),
		rowCount: int32(rowCount),
		enc:      enc,
		minTs:    w.blkMin,
		maxTs:    w.blkMax,
		lastKey:  append([]byte(nil), w.keyEnc...),
	})
	return nil
}

// writeRecord frames payload as the next record of the file, in place at
// the end of the output buffer, and returns its on-disk length.
func (w *Writer) writeRecord(payload []byte) (int, error) {
	if err := w.reserve(recordHeaderSize + lzf.MaxCompressedLen(len(payload))); err != nil {
		return 0, err
	}
	var n int
	w.out, n = appendRecord(w.out, payload, !w.opts.DisableCompression)
	w.off += int64(n)
	return n, nil
}

// reserve makes room for n more bytes in the output buffer. It writes the
// buffer out first when n more would take it past outBufSize, and grows
// it by doubling up to that bound, so the buffer never exceeds the larger
// of outBufSize and one record.
func (w *Writer) reserve(n int) error {
	if len(w.out) > 0 && len(w.out)+n > outBufSize {
		if err := w.writeOut(); err != nil {
			return err
		}
	}
	if len(w.out)+n > cap(w.out) {
		grown := make([]byte, len(w.out), max(len(w.out)+n, min(2*cap(w.out), outBufSize)))
		copy(grown, w.out)
		w.out = grown
	}
	return nil
}

// writeOut writes the output buffer to the file and empties it.
func (w *Writer) writeOut() error {
	_, err := w.f.Write(w.out)
	w.out = w.out[:0]
	return err
}

// RowCount returns the number of rows appended so far.
func (w *Writer) RowCount() int64 { return w.ft.rowCount }

// Abort discards the partially-written tablet.
func (w *Writer) Abort() error {
	if w.closed {
		return nil
	}
	w.closed = true
	w.f.Close()
	return w.fsys.Remove(w.tmpPath)
}

// Close flushes remaining rows, writes the footer and trailer, optionally
// syncs, and renames the file into place. It returns the tablet's summary.
func (w *Writer) Close() (*Info, error) {
	if w.closed {
		return nil, ErrClosed
	}
	w.closed = true
	if err := w.flushBlock(); err != nil {
		w.cleanup()
		return nil, err
	}
	if !w.opts.DisableBloom && len(w.hashes) > 0 {
		w.ft.filter = bloom.New(len(w.hashes) / 2)
		for i := 0; i < len(w.hashes); i += 2 {
			w.ft.filter.AddHash(w.hashes[i], w.hashes[i+1])
		}
	}
	footerOff := w.off
	if _, err := w.writeRecord(w.ft.marshal()); err != nil {
		w.cleanup()
		return nil, err
	}
	if err := w.reserve(trailerSize); err != nil {
		w.cleanup()
		return nil, err
	}
	w.out = appendU64(w.out, uint64(footerOff))
	w.out = appendU64(w.out, magic)
	w.off += trailerSize
	if err := w.writeOut(); err != nil {
		w.cleanup()
		return nil, err
	}
	if w.opts.Sync {
		if err := w.f.Sync(); err != nil {
			w.cleanup()
			return nil, err
		}
	}
	if err := w.f.Close(); err != nil {
		w.fsys.Remove(w.tmpPath)
		return nil, err
	}
	if err := w.fsys.Rename(w.tmpPath, w.path); err != nil {
		w.fsys.Remove(w.tmpPath)
		return nil, err
	}
	if w.opts.Sync {
		// Make the rename durable: without a directory fsync the new entry
		// may not survive a power cut even though the file data did.
		if err := w.fsys.SyncDir(vfs.DirOf(w.path)); err != nil {
			return nil, err
		}
	}
	return &Info{
		Path:     w.path,
		RowCount: w.ft.rowCount,
		MinTs:    w.ft.minTs,
		MaxTs:    w.ft.maxTs,
		Bytes:    w.off,
		Enc:      w.bw.Stats(),
	}, nil
}

func (w *Writer) cleanup() {
	w.f.Close()
	w.fsys.Remove(w.tmpPath)
}
