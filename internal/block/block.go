// Package block implements the 64 kB row blocks that on-disk tablets are
// grouped into (§3.2). A block holds consecutive rows in primary-key order
// plus a row-offset directory, so that once a tablet's index has located
// the right block, a binary search within the block finds the relevant row.
package block

import (
	"errors"
	"fmt"

	"littletable/internal/ltval"
	"littletable/internal/schema"
)

// TargetSize is the default uncompressed block size (§3.2: "grouped into
// 64 kB blocks").
const TargetSize = 64 * 1024

// ErrCorrupt reports a structurally invalid block.
var ErrCorrupt = errors.New("block: corrupt block")

// Layout: [row bytes...][u32 row offset ×N][u32 N], all little-endian.
// Offsets are from the start of the block.

// Writer accumulates rows into one uncompressed block image. In ModeAuto
// it additionally accumulates per-column vectors and, at Finish, emits the
// columnar image when trial encoding shows it is smaller than the legacy
// row-major one.
type Writer struct {
	sc      *schema.Schema
	mode    Mode
	buf     []byte
	offsets []uint32
	cols    []colAcc // auto mode only
	cbuf    []byte   // reusable columnar image buffer
	stats   EncodeStats
}

// NewWriter returns a Writer for rows of schema sc, trial-encoding each
// block (ModeAuto).
func NewWriter(sc *schema.Schema) *Writer { return NewWriterMode(sc, ModeAuto) }

// NewWriterMode returns a Writer with an explicit encoding mode. ModeLegacy
// output is byte-identical to the pre-columnar format.
func NewWriterMode(sc *schema.Schema, mode Mode) *Writer {
	w := &Writer{sc: sc, mode: mode, buf: make([]byte, 0, TargetSize+1024)}
	if mode == ModeAuto {
		w.cols = make([]colAcc, len(sc.Columns))
		for i := range w.cols {
			w.cols[i].class = sc.ColumnClass(i)
		}
	}
	return w
}

// Append adds row to the block. Rows must be appended in ascending primary
// key order; the tablet writer guarantees this. Byte cells are copied into
// the column accumulators, so the row may alias a reused buffer.
func (w *Writer) Append(row schema.Row) {
	w.offsets = append(w.offsets, uint32(len(w.buf)))
	w.buf = w.sc.AppendRow(w.buf, row)
	for i := range w.cols {
		c := &w.cols[i]
		switch c.class {
		case schema.ClassInt:
			c.ints = append(c.ints, row[i].Int)
		case schema.ClassFloat:
			c.floats = append(c.floats, row[i].Float)
		default:
			c.flat = append(c.flat, row[i].Bytes...)
			c.ends = append(c.ends, len(c.flat))
		}
	}
}

// Count returns the number of rows appended so far.
func (w *Writer) Count() int { return len(w.offsets) }

// SizeBytes returns the current uncompressed legacy size including the
// directory. Block-split decisions use this in both modes, so auto and
// legacy tablets get identical block boundaries.
func (w *Writer) SizeBytes() int { return len(w.buf) + 4*len(w.offsets) + 4 }

// Stats returns the encoder statistics accumulated across Finish calls.
func (w *Writer) Stats() EncodeStats { return w.stats }

// Finish serializes the block, reporting which encoding it chose, and
// resets the writer for reuse. The returned slice is valid until the
// writer's next Append or Finish.
func (w *Writer) Finish() ([]byte, Encoding) {
	n := len(w.offsets)
	for _, off := range w.offsets {
		w.buf = appendU32(w.buf, off)
	}
	w.buf = appendU32(w.buf, uint32(n))
	legacy := w.buf
	w.buf = w.buf[len(w.buf):]
	if cap(w.buf) < TargetSize {
		w.buf = make([]byte, 0, TargetSize+1024)
	}
	w.offsets = w.offsets[:0]
	w.stats.Blocks++
	w.stats.BytesBefore += int64(len(legacy))
	if w.mode == ModeLegacy {
		w.stats.BytesAfter += int64(len(legacy))
		return legacy, EncLegacy
	}
	var colStats EncodeStats
	img := encodeColumnar(w.cbuf[:0], w.sc, w.cols, n, &colStats)
	w.cbuf = img[:0]
	for i := range w.cols {
		w.cols[i].reset()
	}
	if len(img) < len(legacy) {
		// Per-column codec counters only count blocks actually emitted
		// columnar; a losing trial leaves no trace on disk.
		w.stats.Add(colStats)
		w.stats.ColumnarBlocks++
		w.stats.BytesAfter += int64(len(img))
		return img, EncColumnar
	}
	w.stats.BytesAfter += int64(len(legacy))
	return legacy, EncLegacy
}

// Block is a parsed, read-only block, in either encoding: legacy blocks
// keep the raw image and decode rows on demand; columnar blocks hold one
// fully decoded typed vector per column.
type Block struct {
	sc   *schema.Schema
	data []byte   // full block image
	dir  []byte   // legacy: the offset directory region
	cols []column // columnar
	n    int
}

// Parse validates and wraps a block image produced by Writer.Finish. The
// data is retained, not copied; rows decoded from the block alias it.
func Parse(sc *schema.Schema, data []byte) (*Block, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("%w: %d bytes", ErrCorrupt, len(data))
	}
	n := int(readU32(data[len(data)-4:]))
	dirStart := len(data) - 4 - 4*n
	if n < 0 || dirStart < 0 {
		return nil, fmt.Errorf("%w: directory claims %d rows", ErrCorrupt, n)
	}
	b := &Block{sc: sc, data: data, dir: data[dirStart : len(data)-4], n: n}
	// Validate offsets are in-bounds and ascending.
	prev := -1
	for i := 0; i < n; i++ {
		off := int(b.offset(i))
		if off <= prev || off >= dirStart {
			return nil, fmt.Errorf("%w: offset %d out of order or range", ErrCorrupt, off)
		}
		prev = off
	}
	return b, nil
}

func (b *Block) offset(i int) uint32 { return readU32(b.dir[4*i:]) }

// Len returns the number of rows in the block.
func (b *Block) Len() int { return b.n }

// Row decodes row i into a fresh row. Byte-valued cells alias the block
// image.
func (b *Block) Row(i int) (schema.Row, error) { return b.RowInto(nil, i) }

// RowInto decodes row i into dst, reusing its storage when it is wide
// enough, and returns the row. Byte-valued cells alias the block image.
func (b *Block) RowInto(dst schema.Row, i int) (schema.Row, error) {
	if i < 0 || i >= b.n {
		return nil, fmt.Errorf("block: row %d out of range [0,%d)", i, b.n)
	}
	if ncols := len(b.sc.Columns); cap(dst) < ncols {
		dst = make(schema.Row, ncols)
	} else {
		dst = dst[:ncols]
	}
	if b.cols == nil {
		_, err := b.sc.DecodeRowInto(dst, b.data[b.offset(i):])
		return dst, err
	}
	for c := range b.cols {
		dst[c] = b.cols[c].value(i)
	}
	return dst, nil
}

// Search returns the index of the first row whose key is >= key (treating a
// short key as a prefix), in [0, Len()]. This is the in-block binary search
// of §3.2.
func (b *Block) Search(key []ltval.Value) (int, error) { return b.search(key, false) }

// SearchAfter returns the index of the first row whose key is strictly
// greater than key (with prefix semantics): the upper bound of the equal
// range. Descending scans start at SearchAfter(key)-1.
func (b *Block) SearchAfter(key []ltval.Value) (int, error) { return b.search(key, true) }

// search binary-searches for the first row whose key is >= key, or > key
// when after is set. Columnar blocks compare the key columns in place;
// legacy blocks decode each probed row into one scratch row.
func (b *Block) search(key []ltval.Value, after bool) (int, error) {
	if len(key) > len(b.sc.Key) {
		key = key[:len(b.sc.Key)]
	}
	var scratch schema.Row
	lo, hi := 0, b.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		c := 0
		if b.cols != nil {
			for j := 0; j < len(key) && c == 0; j++ {
				c = b.cols[b.sc.Key[j]].value(mid).Compare(key[j])
			}
		} else {
			var err error
			if scratch, err = b.RowInto(scratch, mid); err != nil {
				return 0, err
			}
			c = b.sc.CompareRowToKey(scratch, key)
		}
		if c < 0 || (after && c == 0) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, nil
}

func appendU32(dst []byte, u uint32) []byte {
	return append(dst, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
}

func readU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
