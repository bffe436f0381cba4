// Per-column codecs for the columnar block encoding. The schema assigns
// each column a codec family (schema.ColumnClass); within a family the
// writer trial-encodes and keeps whichever representation is smallest, so
// a column that happens not to compress falls back to its plain encoding
// rather than growing. The chosen codec is recorded per column in the
// block image header, and the block-level encoding (legacy row-major vs
// columnar) is recorded in the tablet footer, so readers never guess.
package block

import (
	"encoding/binary"
	"math/bits"
)

// Encoding identifies a block's top-level layout, recorded per block in
// the tablet footer (format version 2).
type Encoding uint8

const (
	// EncLegacy is the original row-major layout: concatenated ltval row
	// encodings followed by a u32 offset directory. Tablets written before
	// the columnar format carry it implicitly (footer version 1).
	EncLegacy Encoding = 0
	// EncColumnar is the per-column layout: a header naming one codec per
	// schema column, then each column's encoded vector.
	EncColumnar Encoding = 1
)

// Valid reports whether e names a known block encoding.
func (e Encoding) Valid() bool { return e == EncLegacy || e == EncColumnar }

// Codec identifies one column's encoding inside a columnar block.
type Codec uint8

const (
	// CodecPlain is the universal fallback: the column's ltval encodings
	// concatenated in row order.
	CodecPlain Codec = 0
	// CodecDelta is delta-of-delta + zigzag varint, for int-class columns
	// (Int32, Int64, Timestamp). Regularly spaced timestamps and slowly
	// moving counters collapse to ~1 byte per value.
	CodecDelta Codec = 1
	// CodecXOR is the Gorilla-style XOR bitstream for Double columns:
	// slowly varying gauges cost a bit or a few per value.
	CodecXOR Codec = 2
	// CodecDict is a dictionary for byte-class columns: distinct values
	// stored once, rows as indices. Wins on low-cardinality strings.
	CodecDict Codec = 3
	// CodecLZF is the byte-class fallback for high-cardinality blocks:
	// lzf over the plain vector, kept only when it actually shrinks.
	CodecLZF Codec = 4
)

// Mode selects how a Writer encodes finished blocks.
type Mode int

const (
	// ModeAuto trial-encodes each block per column and emits the columnar
	// layout when it is smaller than the legacy image. The default.
	ModeAuto Mode = iota
	// ModeLegacy always emits the row-major layout (and the tablet writer
	// pairs it with a version-1 footer), producing output byte-identical
	// to the pre-columnar format. The -block-encoding=legacy escape hatch.
	ModeLegacy
)

// EncodeStats aggregates what the encoder did, per codec family, for the
// engine's stats counters.
type EncodeStats struct {
	Blocks         int64 // blocks finished
	ColumnarBlocks int64 // blocks that chose the columnar layout
	BytesBefore    int64 // legacy-image bytes before encoding chose
	BytesAfter     int64 // bytes of the chosen image
	ColsDelta      int64 // columns encoded delta-of-delta
	ColsXOR        int64 // columns encoded as XOR bitstreams
	ColsDict       int64 // columns encoded via dictionary or lzf fallback
	ColsPlain      int64 // columns that fell back to plain
}

// Add accumulates o into s.
func (s *EncodeStats) Add(o EncodeStats) {
	s.Blocks += o.Blocks
	s.ColumnarBlocks += o.ColumnarBlocks
	s.BytesBefore += o.BytesBefore
	s.BytesAfter += o.BytesAfter
	s.ColsDelta += o.ColsDelta
	s.ColsXOR += o.ColsXOR
	s.ColsDict += o.ColsDict
	s.ColsPlain += o.ColsPlain
}

// zigzag maps signed to unsigned so small-magnitude deltas (of either
// sign) get short varints. All arithmetic is wrapping: deltas of arbitrary
// int64s may overflow, and wraparound round-trips exactly.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func appendUvarint(dst []byte, u uint64) []byte {
	for u >= 0x80 {
		dst = append(dst, byte(u)|0x80)
		u >>= 7
	}
	return append(dst, byte(u))
}

// uvarint decodes one uvarint from b, returning (value, width). Width 0
// means a truncated buffer; width -1 an overlong encoding.
func uvarint(b []byte) (uint64, int) {
	var u uint64
	var shift uint
	for i, c := range b {
		if i >= 10 || (i == 9 && c > 1) {
			return 0, -1
		}
		if c < 0x80 {
			return u | uint64(c)<<shift, i + 1
		}
		u |= uint64(c&0x7f) << shift
		shift += 7
	}
	return 0, 0
}

// bitWriter packs bits MSB-first into a byte slice, for the XOR float
// codec.
type bitWriter struct {
	b    []byte
	nbit uint8 // bits used in the final byte (0 = full)
}

func (w *bitWriter) writeBit(bit uint64) {
	if w.nbit == 0 {
		w.b = append(w.b, 0)
		w.nbit = 8
	}
	w.nbit--
	if bit != 0 {
		w.b[len(w.b)-1] |= 1 << w.nbit
	}
}

// writeBits writes the low n bits of v, most significant first.
func (w *bitWriter) writeBits(v uint64, n uint) {
	for n > 0 {
		n--
		w.writeBit((v >> n) & 1)
	}
}

// bitReader consumes bits MSB-first from a byte slice.
type bitReader struct {
	b   []byte
	pos int // absolute bit position
}

// readBits reads the next n <= 64 bits, most significant first.
func (r *bitReader) readBits(n uint) (uint64, bool) {
	if r.pos+int(n) > 8*len(r.b) {
		return 0, false
	}
	idx, used := r.pos>>3, uint(r.pos&7)
	if idx+9 <= len(r.b) {
		// Nine bytes from idx always cover used+n <= 71 bits: one shifted
		// load instead of a byte loop. (A shift by 64, for n = 0, is 0.)
		r.pos += int(n)
		w := binary.BigEndian.Uint64(r.b[idx:])<<used | uint64(r.b[idx+8])>>(8-used)
		return w >> (64 - n), true
	}
	var v uint64
	for n > 0 { // the stream's last bytes, a byte's worth at a time
		avail := 8 - uint(r.pos&7)
		take := min(avail, n)
		v = v<<take | uint64(r.b[r.pos>>3])>>(avail-take)&(1<<take-1)
		r.pos += int(take)
		n -= take
	}
	return v, true
}

// leadingZeros64 caps the count at 31 so it fits the 5-bit header field;
// capping only costs compression, never correctness.
func leadingZeros64(u uint64) uint {
	lz := uint(bits.LeadingZeros64(u))
	if lz > 31 {
		lz = 31
	}
	return lz
}
