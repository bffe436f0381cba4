package tablet

import (
	"fmt"
	"sync"

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
// file. The file is a vfs.AtomicFile, renamed into place on Close, so a
// crash mid-flush leaves no partial tablet visible (§3.2's descriptor
// update makes it durable).
//
// Per-block work runs on a one-block stage: when a block fills, Append
// hands its block writer to a stage goroutine, which encodes, compresses
// and writes the block while Append fills the other block writer. At most
// one block is in flight; the stage starts at the first full block, and
// Close and Abort join it. The caller's goroutine owns the row count, the
// time span, the Bloom hashes and the last key; the stage owns the block
// index, the file offset, the output buffer and the file until it is
// joined. A stage error is kept and returned by every later Append and by
// Close.
//
// Append copies what it keeps of a row (the key, the block's cells), so
// the caller may reuse the row's storage as soon as Append returns. The
// two block writers and the output buffer are borrowed from a package
// pool until Close or Abort, so a Writer allocates nothing per row once
// its buffers have grown, and a tablet written after another reuses its
// buffers.
type Writer struct {
	path string
	f    *vfs.AtomicFile
	opts WriterOptions
	sc   *schema.Schema
	bufs *writerBufs // borrowed from bufPool until Close or Abort

	// Owned by the caller's goroutine.
	bw       *block.Writer // the block being filled
	lastKey  []ltval.Value
	keyBuf   []byte // backs lastKey's byte cells
	keyEnc   []byte // AppendKey encoding of the last row appended
	blkMin   int64
	blkMax   int64
	hashes   []uint64 // h1,h2 pairs for the bloom filter
	closed   bool
	err      error            // the first stage error; fails every later call
	jobs     chan stageJob    // nil until the stage starts
	done     chan stageResult // the stage's block writer back, with its error
	inFlight bool             // a block is on the stage

	// ft's row count and time span are the caller's; its block index is
	// the stage's, as are off and out.
	ft  footer
	off int64  // file offset of the next record
	out []byte // framed records not yet written to f; see reserve
}

// stageJob is one full block handed to the stage, with its index entry
// less the fields only encoding decides.
type stageJob struct {
	bw   *block.Writer
	meta blockMeta
}

// stageResult returns a block writer from the stage, emptied, with the
// error of writing its block.
type stageResult struct {
	bw  *block.Writer
	err error
}

// writerBufs is a Writer's reusable working memory: its two block writers
// and its output buffer.
type writerBufs struct {
	bw  [2]*block.Writer
	out []byte
}

var bufPool = sync.Pool{New: func() any { return new(writerBufs) }}

// reset empties both block writers and binds them to sc.
func (b *writerBufs) reset(sc *schema.Schema) {
	for i, bw := range b.bw {
		if bw == nil {
			b.bw[i] = block.NewWriter(sc)
		} else {
			bw.Reset(sc)
		}
	}
}

// Create opens a tablet writer for rows of schema sc at path.
func Create(path string, sc *schema.Schema, opts WriterOptions) (*Writer, error) {
	f, err := vfs.CreateAtomic(opts.fsys(), path, opts.Sync)
	if err != nil {
		return nil, err
	}
	bufs := bufPool.Get().(*writerBufs)
	bufs.reset(sc)
	w := &Writer{
		path: path,
		f:    f,
		opts: opts,
		sc:   sc,
		bufs: bufs,
		bw:   bufs.bw[0],
		ft:   footer{sc: sc, version: formatVersion},
		out:  bufs.out[:0],
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
	if w.err != nil {
		return w.err
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
		return w.handOff()
	}
	return nil
}

// blockMeta is the index entry of the block being filled, less what only
// encoding it decides.
func (w *Writer) blockMeta() blockMeta {
	return blockMeta{
		rowCount: int32(w.bw.Count()),
		minTs:    w.blkMin,
		maxTs:    w.blkMax,
		lastKey:  append([]byte(nil), w.keyEnc...),
	}
}

// handOff passes the full block to the stage and takes the stage's other
// block writer to fill next, first waiting for the block in flight, if
// there is one. The first call starts the stage.
func (w *Writer) handOff() error {
	next := w.join()
	if w.err != nil {
		return w.err
	}
	if w.jobs == nil {
		w.jobs = make(chan stageJob, 1)
		w.done = make(chan stageResult, 1)
		go w.stage(w.jobs, w.done)
		next = w.bufs.bw[1]
	}
	w.jobs <- stageJob{bw: w.bw, meta: w.blockMeta()}
	w.inFlight = true
	w.bw = next
	return nil
}

// stage is the stage goroutine: it writes each block it is handed, in
// order, and hands the block writer back. It returns, closing done, once
// jobs is closed.
func (w *Writer) stage(jobs <-chan stageJob, done chan<- stageResult) {
	defer close(done)
	for j := range jobs {
		done <- stageResult{bw: j.bw, err: w.writeBlock(j.bw, j.meta)}
	}
}

// join waits for the block in flight, if any, keeps its error, and
// returns its block writer (nil if none was in flight).
func (w *Writer) join() *block.Writer {
	if !w.inFlight {
		return nil
	}
	r := <-w.done
	w.inFlight = false
	if w.err == nil {
		w.err = r.err
	}
	return r.bw
}

// stopStage joins the block in flight and waits for the stage goroutine
// to return. It is a no-op if the stage never started or has stopped.
func (w *Writer) stopStage() {
	if w.jobs == nil {
		return
	}
	w.join()
	close(w.jobs)
	<-w.done
	w.jobs = nil
}

// writeBlock encodes bw's block and appends it to the file, and its index
// entry m, completed, to the block index.
func (w *Writer) writeBlock(bw *block.Writer, m blockMeta) error {
	img, enc := bw.Finish()
	m.offset, m.rawLen, m.enc = w.off, int32(len(img)), enc
	diskLen, err := w.writeRecord(img)
	if err != nil {
		return err
	}
	m.diskLen = int32(diskLen)
	w.ft.blocks = append(w.ft.blocks, m)
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
	w.closed = true
	return w.release()
}

// release joins the stage, removes the file unless Close committed it,
// and returns the buffers to the pool. Only the first call returns them.
func (w *Writer) release() error {
	w.stopStage()
	err := w.f.Abort() // a no-op once committed
	if w.bufs != nil {
		w.bufs.out = w.out[:0]
		bufPool.Put(w.bufs)
		w.bufs, w.bw, w.out = nil, nil, nil
	}
	return err
}

// Close flushes remaining rows, writes the footer and trailer, optionally
// syncs, and renames the file into place. It returns the tablet's summary.
func (w *Writer) Close() (*Info, error) {
	if w.closed {
		return nil, ErrClosed
	}
	w.closed = true
	defer w.release()
	w.stopStage()
	if w.err != nil {
		return nil, w.err
	}
	if w.bw.Count() > 0 {
		if err := w.writeBlock(w.bw, w.blockMeta()); err != nil {
			return nil, err
		}
	}
	if !w.opts.DisableBloom && len(w.hashes) > 0 {
		w.ft.filter = bloom.New(len(w.hashes) / 2)
		for i := 0; i < len(w.hashes); i += 2 {
			w.ft.filter.AddHash(w.hashes[i], w.hashes[i+1])
		}
	}
	footerOff := w.off
	if _, err := w.writeRecord(w.ft.marshal()); err != nil {
		return nil, err
	}
	if err := w.reserve(trailerSize); err != nil {
		return nil, err
	}
	w.out = appendU64(w.out, uint64(footerOff))
	w.out = appendU64(w.out, magic)
	w.off += trailerSize
	if err := w.writeOut(); err != nil {
		return nil, err
	}
	if err := w.f.Commit(); err != nil {
		return nil, err
	}
	enc := w.bufs.bw[0].Stats()
	enc.Add(w.bufs.bw[1].Stats())
	return &Info{
		Path:     w.path,
		RowCount: w.ft.rowCount,
		MinTs:    w.ft.minTs,
		MaxTs:    w.ft.maxTs,
		Bytes:    w.off,
		Enc:      enc,
	}, nil
}
