package block

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"littletable/internal/ltval"
	"littletable/internal/lzf"
	"littletable/internal/schema"
)

// column is one decoded column of a columnar block: a typed vector chosen
// by the column's class, the decode-side twin of colAcc. Numeric cells
// cost 8 bytes of pointer-free memory each; a byte cell costs two offsets
// into buf, which is the block image itself (plain and dictionary columns)
// or the column's decompressed bytes (lzf).
type column struct {
	typ    ltval.Type
	ints   []int64   // ClassInt
	floats []float64 // ClassFloat
	buf    []byte    // ClassBytes: cell i is buf[spans[2i]:spans[2i+1]]
	spans  []uint32
}

// value boxes cell i. Byte cells alias buf.
func (c *column) value(i int) ltval.Value {
	switch schema.ClassOf(c.typ) {
	case schema.ClassInt:
		return ltval.Value{Type: c.typ, Int: c.ints[i]}
	case schema.ClassFloat:
		return ltval.Value{Type: c.typ, Float: c.floats[i]}
	default:
		return ltval.Value{Type: c.typ, Bytes: c.buf[c.spans[2*i]:c.spans[2*i+1]]}
	}
}

// Decode parses a block image whose top-level encoding enc was recorded in
// the tablet footer. Legacy images go through Parse; columnar images are
// decoded into per-column typed vectors.
func Decode(sc *schema.Schema, enc Encoding, data []byte) (*Block, error) {
	switch enc {
	case EncLegacy:
		return Parse(sc, data)
	case EncColumnar:
		return parseColumnar(sc, data)
	default:
		return nil, fmt.Errorf("%w: unknown encoding %d", ErrCorrupt, enc)
	}
}

// parseColumnar validates and decodes a columnar block image. Every codec
// must consume its column's bytes exactly, and the image must hold exactly
// the declared columns — trailing garbage is corruption, not slack.
func parseColumnar(sc *schema.Schema, data []byte) (*Block, error) {
	r := data
	if len(r) < 5 || r[0] != colFormatVersion {
		return nil, fmt.Errorf("%w: bad columnar version", ErrCorrupt)
	}
	crc := uint32(r[1]) | uint32(r[2])<<8 | uint32(r[3])<<16 | uint32(r[4])<<24
	r = r[5:]
	if crc32.Checksum(r, castagnoli) != crc {
		return nil, fmt.Errorf("%w: columnar checksum mismatch", ErrCorrupt)
	}
	rowCount, w := uvarint(r)
	if w <= 0 {
		return nil, fmt.Errorf("%w: bad row count", ErrCorrupt)
	}
	r = r[w:]
	ncols, w := uvarint(r)
	if w <= 0 {
		return nil, fmt.Errorf("%w: bad column count", ErrCorrupt)
	}
	r = r[w:]
	// A value costs at least one bit in the cheapest codec (XOR repeats),
	// so any genuine image bounds rowCount by its own size. Reject larger
	// claims before allocating anything proportional to them. Byte cells
	// are addressed by 32-bit offsets, so an image must also fit in them.
	if ncols != uint64(len(sc.Columns)) || rowCount > uint64(8*len(data)+64) || uint64(len(data)) > math.MaxUint32 {
		return nil, fmt.Errorf("%w: claims %d rows × %d cols in %d bytes", ErrCorrupt, rowCount, ncols, len(data))
	}
	n := int(rowCount)
	if len(r) < int(ncols) {
		return nil, fmt.Errorf("%w: truncated codec list", ErrCorrupt)
	}
	codecs := r[:ncols]
	r = r[ncols:]
	cols := make([]column, ncols)
	for i := range cols {
		encLen, w := uvarint(r)
		if w <= 0 || encLen > uint64(len(r)-w) {
			return nil, fmt.Errorf("%w: truncated column %d", ErrCorrupt, i)
		}
		colEnc := r[w : w+int(encLen)]
		r = r[w+int(encLen):]
		col, err := decodeColumn(sc.Columns[i].Type, Codec(codecs[i]), colEnc, n)
		if err != nil {
			return nil, fmt.Errorf("column %d (%s): %w", i, sc.Columns[i].Name, err)
		}
		cols[i] = col
	}
	if len(r) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(r))
	}
	return &Block{sc: sc, data: data, cols: cols, n: n}, nil
}

// decodeColumn dispatches one column's bytes to its codec, checking the
// codec is legal for the column's class.
func decodeColumn(t ltval.Type, codec Codec, enc []byte, n int) (column, error) {
	class := schema.ClassOf(t)
	col := column{typ: t}
	var err error
	switch codec {
	case CodecPlain:
		return decodePlain(t, enc, n)
	case CodecDelta:
		if class != schema.ClassInt {
			return col, fmt.Errorf("%w: delta codec on %v column", ErrCorrupt, t)
		}
		col.ints, err = decodeDelta(t, enc, n)
	case CodecXOR:
		if class != schema.ClassFloat {
			return col, fmt.Errorf("%w: xor codec on %v column", ErrCorrupt, t)
		}
		col.floats, err = decodeXOR(enc, n)
	case CodecDict:
		if class != schema.ClassBytes {
			return col, fmt.Errorf("%w: dict codec on %v column", ErrCorrupt, t)
		}
		return decodeDict(t, enc, n)
	case CodecLZF:
		if class != schema.ClassBytes {
			return col, fmt.Errorf("%w: lzf codec on %v column", ErrCorrupt, t)
		}
		return decodeLZF(t, enc, n)
	default:
		err = fmt.Errorf("%w: unknown codec %d", ErrCorrupt, codec)
	}
	return col, err
}

// decodePlain decodes n concatenated ltval encodings, requiring exact
// consumption.
func decodePlain(t ltval.Type, enc []byte, n int) (column, error) {
	col := column{typ: t}
	if schema.ClassOf(t) == schema.ClassBytes {
		col.buf = enc
		col.spans = make([]uint32, 0, 2*capHint(n, len(enc)))
		off := 0
		for i := 0; i < n; i++ {
			l, w := uvarint(enc[off:])
			if w <= 0 || l > uint64(len(enc)-off-w) {
				return col, fmt.Errorf("%w: truncated %v cell", ErrCorrupt, t)
			}
			off += w
			col.spans = append(col.spans, uint32(off), uint32(off+int(l)))
			off += int(l)
		}
		if off != len(enc) {
			return col, fmt.Errorf("%w: %d trailing column bytes", ErrCorrupt, len(enc)-off)
		}
		return col, nil
	}
	// Fixed-width cells: exact consumption is a length check. n is bounded
	// by the image size, so the product cannot overflow.
	width := fixedWidth(t)
	if len(enc) != n*width {
		return col, fmt.Errorf("%w: %d bytes for %d %v cells", ErrCorrupt, len(enc), n, t)
	}
	switch {
	case t == ltval.Double:
		col.floats = make([]float64, n)
		for i := range col.floats {
			col.floats[i] = math.Float64frombits(binary.LittleEndian.Uint64(enc[8*i:]))
		}
	case width == 4:
		col.ints = make([]int64, n)
		for i := range col.ints {
			col.ints[i] = int64(int32(readU32(enc[4*i:])))
		}
	default:
		col.ints = make([]int64, n)
		for i := range col.ints {
			col.ints[i] = int64(binary.LittleEndian.Uint64(enc[8*i:]))
		}
	}
	return col, nil
}

// decodeDelta reverses encodeDelta with the same wrapping arithmetic.
// Int32 columns additionally require every value to fit in 32 bits: a
// flipped delta that walks out of range is corruption, not a new value.
func decodeDelta(t ltval.Type, enc []byte, n int) ([]int64, error) {
	vals := make([]int64, 0, capHint(n, len(enc)))
	var prev, prevDelta uint64
	for i := 0; i < n; i++ {
		u, w := uvarint(enc)
		if w <= 0 {
			return nil, fmt.Errorf("%w: bad delta varint", ErrCorrupt)
		}
		enc = enc[w:]
		if i == 0 {
			prev = uint64(unzigzag(u))
		} else {
			prevDelta += uint64(unzigzag(u))
			prev += prevDelta
		}
		v := int64(prev)
		if t == ltval.Int32 && v != int64(int32(v)) {
			return nil, fmt.Errorf("%w: delta value overflows int32", ErrCorrupt)
		}
		vals = append(vals, v)
	}
	if len(enc) != 0 {
		return nil, fmt.Errorf("%w: %d trailing column bytes", ErrCorrupt, len(enc))
	}
	return vals, nil
}

// decodeXOR reverses encodeXOR. The bitstream must end within the final
// byte and its padding bits must be zero, so every encoding is canonical
// and trailing garbage is detected.
func decodeXOR(enc []byte, n int) ([]float64, error) {
	vals := make([]float64, 0, capHint(n, len(enc)))
	if n == 0 {
		if len(enc) != 0 {
			return nil, fmt.Errorf("%w: bytes in empty xor column", ErrCorrupt)
		}
		return vals, nil
	}
	r := bitReader{b: enc}
	prev, ok := r.readBits(64)
	if !ok {
		return nil, fmt.Errorf("%w: truncated xor stream", ErrCorrupt)
	}
	vals = append(vals, math.Float64frombits(prev))
	winLZ := uint(255)
	winTZ := uint(0)
	for i := 1; i < n; i++ {
		ctrl, ok := r.readBits(1)
		if !ok {
			return nil, fmt.Errorf("%w: truncated xor stream", ErrCorrupt)
		}
		if ctrl == 0 {
			vals = append(vals, math.Float64frombits(prev))
			continue
		}
		reuse, ok := r.readBits(1)
		if !ok {
			return nil, fmt.Errorf("%w: truncated xor stream", ErrCorrupt)
		}
		if reuse == 0 {
			if winLZ == 255 {
				return nil, fmt.Errorf("%w: xor window reused before set", ErrCorrupt)
			}
		} else {
			hdr, ok := r.readBits(11) // 5-bit leading-zero count, 6-bit length-1
			if !ok {
				return nil, fmt.Errorf("%w: truncated xor stream", ErrCorrupt)
			}
			lz, sigm1 := uint(hdr>>6), uint(hdr&63)
			if lz+sigm1+1 > 64 {
				return nil, fmt.Errorf("%w: xor window wider than 64 bits", ErrCorrupt)
			}
			winLZ = lz
			winTZ = 64 - winLZ - (sigm1 + 1)
		}
		sig := 64 - winLZ - winTZ
		bits, ok := r.readBits(sig)
		if !ok {
			return nil, fmt.Errorf("%w: truncated xor stream", ErrCorrupt)
		}
		prev ^= bits << winTZ
		vals = append(vals, math.Float64frombits(prev))
	}
	// Exact consumption: the stream must end inside the last byte, with
	// zero padding bits.
	if (r.pos+7)/8 != len(enc) {
		return nil, fmt.Errorf("%w: %d trailing xor bytes", ErrCorrupt, len(enc)-(r.pos+7)/8)
	}
	if pad, _ := r.readBits(uint(-r.pos) & 7); pad != 0 {
		return nil, fmt.Errorf("%w: nonzero xor padding", ErrCorrupt)
	}
	return vals, nil
}

// decodeDict reverses encodeDict. Cells alias the dictionary entries in
// the block image; indices must stay within the declared dictionary.
func decodeDict(t ltval.Type, enc []byte, n int) (column, error) {
	col := column{typ: t, buf: enc}
	count, w := uvarint(enc)
	if w <= 0 || count > maxDictEntries {
		return col, fmt.Errorf("%w: bad dictionary size", ErrCorrupt)
	}
	off := w
	var entries [2 * maxDictEntries]uint32 // entry id's span, as in column.spans
	for i := 0; i < int(count); i++ {
		l, w := uvarint(enc[off:])
		if w <= 0 || l > uint64(len(enc)-off-w) {
			return col, fmt.Errorf("%w: truncated dictionary entry", ErrCorrupt)
		}
		off += w
		entries[2*i], entries[2*i+1] = uint32(off), uint32(off+int(l))
		off += int(l)
	}
	enc = enc[off:]
	col.spans = make([]uint32, 0, 2*capHint(n, len(enc)))
	for i := 0; i < n; i++ {
		id, w := uvarint(enc)
		if w <= 0 || id >= count {
			return col, fmt.Errorf("%w: bad dictionary index", ErrCorrupt)
		}
		enc = enc[w:]
		col.spans = append(col.spans, entries[2*id], entries[2*id+1])
	}
	if len(enc) != 0 {
		return col, fmt.Errorf("%w: %d trailing column bytes", ErrCorrupt, len(enc))
	}
	return col, nil
}

// decodeLZF decompresses the plain byte vector and decodes it. The raw
// length claim is capped so corruption cannot force a huge allocation.
func decodeLZF(t ltval.Type, enc []byte, n int) (column, error) {
	rawLen, w := uvarint(enc)
	// Beyond the absolute cap, bound the claim by lzf's maximum expansion
	// (255 output bytes per input byte), so a corrupt length cannot size a
	// large zeroed buffer even when the image checksum has been forged.
	if w <= 0 || rawLen > maxColumnBytes || rawLen > uint64(255*(len(enc)-w)+64) {
		return column{typ: t}, fmt.Errorf("%w: bad lzf length", ErrCorrupt)
	}
	raw, err := lzf.Decompress(make([]byte, rawLen), enc[w:])
	if err != nil {
		return column{typ: t}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return decodePlain(t, raw, n)
}

// capHint bounds a column vector's preallocation by what its encoded bytes
// could possibly hold, so a corrupt row count cannot drive allocation.
func capHint(n, encLen int) int {
	if limit := 8*encLen + 64; n > limit {
		return limit
	}
	return n
}
