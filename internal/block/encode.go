package block

import (
	"hash/crc32"
	"math"
	"math/bits"

	"littletable/internal/ltval"
	"littletable/internal/lzf"
	"littletable/internal/schema"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Columnar image layout, chosen per block when it beats the legacy image:
//
//	u8      colFormatVersion (currently 1)
//	u32     CRC-32C of everything after this field, little-endian
//	uvarint rowCount
//	uvarint ncols            (must equal the schema width)
//	ncols × u8 codec id
//	ncols × (uvarint encLen, encLen bytes)
//
// Decoders require the image to be consumed exactly; trailing bytes are
// corruption. The CRC makes the image self-validating: unlike the legacy
// layout (whose row bytes have no redundancy and rely entirely on the
// tablet record CRC), a columnar image survives a bit flip anywhere with a
// detection guarantee even when read outside a tablet record.
const colFormatVersion = 1

// maxDictEntries caps dictionary size: past this cardinality the dictionary
// rarely wins and the LZF fallback takes over.
const maxDictEntries = 256

// maxColumnBytes caps a decoded column vector (the LZF rawLen claim), so a
// corrupt length field cannot make the reader allocate unbounded memory.
const maxColumnBytes = 1 << 24

// colAcc accumulates one column's cells across a block, in the shape its
// codec family wants. Byte cells are copied into the flat buffer because
// appended rows alias caller-owned buffers that are reused.
type colAcc struct {
	class  schema.ColumnClass
	ints   []int64
	floats []float64
	flat   []byte // concatenated byte cells
	ends   []int  // end offset of cell i within flat
}

func (c *colAcc) reset() {
	c.ints = c.ints[:0]
	c.floats = c.floats[:0]
	c.flat = c.flat[:0]
	c.ends = c.ends[:0]
}

// cell returns byte cell i.
func (c *colAcc) cell(i int) []byte {
	start := 0
	if i > 0 {
		start = c.ends[i-1]
	}
	return c.flat[start:c.ends[i]]
}

// encScratch is the encoder's working memory, owned by one Writer and
// reused for every block it finishes. Each trial that may still be
// compared against another has its own buffer — the plain (or delta, XOR)
// trial, the dictionary trial and the LZF trial never share storage — and
// every buffer is stored back after use so its capacity carries over.
type encScratch struct {
	trial   []byte
	dict    []byte
	lzf     []byte
	entries []dictEntry
	order   []int // row index of each dictionary entry's first occurrence
	idx     []int // dictionary id of each row
}

// encodeColumnar builds the columnar image for the accumulated columns,
// appending to dst, and reports per-column codec choices into st. rowCount
// is the number of rows in every column.
func encodeColumnar(dst []byte, sc *schema.Schema, cols []colAcc, rowCount int, st *EncodeStats, s *encScratch) []byte {
	start := len(dst)
	dst = append(dst, colFormatVersion, 0, 0, 0, 0) // CRC patched below
	dst = appendUvarint(dst, uint64(rowCount))
	dst = appendUvarint(dst, uint64(len(cols)))
	codecAt := len(dst)
	for range cols {
		dst = append(dst, byte(CodecPlain))
	}
	for i := range cols {
		c := &cols[i]
		var enc []byte
		var codec Codec
		switch c.class {
		case schema.ClassInt:
			enc, codec = encodeIntColumn(s.trial[:0], c.ints, sc.Columns[i].Type)
			s.trial = enc
		case schema.ClassFloat:
			enc, codec = encodeFloatColumn(s.trial[:0], c.floats)
			s.trial = enc
		default:
			enc, codec = encodeBytesColumn(c, s)
		}
		switch codec {
		case CodecDelta:
			st.ColsDelta++
		case CodecXOR:
			st.ColsXOR++
		case CodecDict, CodecLZF:
			st.ColsDict++
		default:
			st.ColsPlain++
		}
		dst[codecAt+i] = byte(codec)
		dst = appendUvarint(dst, uint64(len(enc)))
		dst = append(dst, enc...)
	}
	crc := crc32.Checksum(dst[start+5:], castagnoli)
	dst[start+1] = byte(crc)
	dst[start+2] = byte(crc >> 8)
	dst[start+3] = byte(crc >> 16)
	dst[start+4] = byte(crc >> 24)
	return dst
}

// encodeIntColumn trial-encodes an int-class column as delta-of-delta and
// keeps it only if it beats the plain fixed-width form.
func encodeIntColumn(dst []byte, vals []int64, t ltval.Type) ([]byte, Codec) {
	delta := encodeDelta(dst, vals)
	plainSize := len(vals) * fixedWidth(t)
	if len(delta) < plainSize {
		return delta, CodecDelta
	}
	return encodePlainInts(delta[:0], vals, t), CodecPlain
}

// encodeFloatColumn trial-encodes a Double column as a Gorilla XOR
// bitstream and keeps it only if it beats plain 8-byte words.
func encodeFloatColumn(dst []byte, vals []float64) ([]byte, Codec) {
	xor := encodeXOR(dst, vals)
	if len(xor) < 8*len(vals) {
		return xor, CodecXOR
	}
	return encodePlainFloats(xor[:0], vals), CodecPlain
}

// encodeBytesColumn trial-encodes a byte-class column: dictionary when
// cardinality permits, LZF over the plain vector otherwise, plain if
// neither shrinks it. The result lives in one of s's buffers and is valid
// until the next call with s.
func encodeBytesColumn(c *colAcc, s *encScratch) ([]byte, Codec) {
	plain := encodePlainBytes(s.trial[:0], c)
	s.trial = plain
	dict, ok := encodeDict(s.dict[:0], c, s)
	s.dict = dict
	if ok && len(dict) < len(plain) {
		return dict, CodecDict
	}
	compressed := appendUvarint(s.lzf[:0], uint64(len(plain)))
	compressed = lzf.Compress(compressed, plain)
	s.lzf = compressed
	if len(compressed) < len(plain) {
		return compressed, CodecLZF
	}
	return plain, CodecPlain
}

// encodeDelta writes vals as zigzag varints: the first value, then
// delta-of-delta for each subsequent one. All arithmetic is wrapping, so
// arbitrary int64s (and overflowing deltas) round-trip exactly.
func encodeDelta(dst []byte, vals []int64) []byte {
	if len(vals) == 0 {
		return dst
	}
	dst = appendUvarint(dst, zigzag(vals[0]))
	prev := uint64(vals[0])
	var prevDelta uint64
	for _, v := range vals[1:] {
		delta := uint64(v) - prev
		dst = appendUvarint(dst, zigzag(int64(delta-prevDelta)))
		prev = uint64(v)
		prevDelta = delta
	}
	return dst
}

// encodeXOR writes vals as a Gorilla-style XOR bitstream: 64 raw bits for
// the first value, then per value a 0 bit (repeat), '10' + significant bits
// in the previous window, or '11' + 5-bit leading-zero count + 6-bit
// (length-1) + significant bits. Each changed value goes out in one
// writeBits call, or two when it exceeds a 64-bit word.
func encodeXOR(dst []byte, vals []float64) []byte {
	if len(vals) == 0 {
		return dst
	}
	w := bitWriter{b: dst}
	prev := math.Float64bits(vals[0])
	w.writeBits(prev, 64)
	prevLZ := uint(255) // sentinel: no window yet, force a '11' control
	prevTZ := uint(0)
	for _, v := range vals[1:] {
		cur := math.Float64bits(v)
		x := cur ^ prev
		prev = cur
		if x == 0 {
			w.writeBits(0, 1)
			continue
		}
		lz := leadingZeros64(x)
		tz := uint(bits.TrailingZeros64(x))
		if lz >= prevLZ && tz >= prevTZ {
			w.writeTagged(0b10, 2, x>>prevTZ, 64-prevLZ-prevTZ)
		} else {
			sig := 64 - lz - tz
			w.writeTagged(0b11<<11|uint64(lz)<<6|uint64(sig-1), 13, x>>tz, sig)
			prevLZ, prevTZ = lz, tz
		}
	}
	return w.finish()
}

// dictEntry is one distinct value in encodeDict's hash chains.
type dictEntry struct {
	id   int
	next int // index into entries, -1 = end of chain
}

// encodeDict writes a dictionary column: distinct values in first-seen
// order, then one uvarint index per row, using s's entries, order and idx
// as working memory. Returns ok=false, and dst unextended, past
// maxDictEntries — the LZF fallback handles high-cardinality blocks.
func encodeDict(dst []byte, c *colAcc, s *encScratch) ([]byte, bool) {
	// A tiny open-chained hash keyed on FNV of the cell, to avoid
	// string-allocating a map key per row.
	const buckets = 512
	var head [buckets]int
	for i := range head {
		head[i] = -1
	}
	entries, order, idx := s.entries[:0], s.order[:0], s.idx[:0]
	for i := range c.ends {
		cell := c.cell(i)
		h := fnv32(cell) & (buckets - 1)
		found := -1
		for e := head[h]; e != -1; e = entries[e].next {
			j := order[entries[e].id]
			if bytesEqual(c.cell(j), cell) {
				found = entries[e].id
				break
			}
		}
		if found == -1 {
			if len(entries) >= maxDictEntries {
				s.entries, s.order, s.idx = entries, order, idx
				return dst, false
			}
			found = len(entries)
			entries = append(entries, dictEntry{id: found, next: head[h]})
			head[h] = len(entries) - 1
			order = append(order, i)
		}
		idx = append(idx, found)
	}
	s.entries, s.order, s.idx = entries, order, idx
	dst = appendUvarint(dst, uint64(len(order)))
	for _, row := range order {
		cell := c.cell(row)
		dst = appendUvarint(dst, uint64(len(cell)))
		dst = append(dst, cell...)
	}
	for _, id := range idx {
		dst = appendUvarint(dst, uint64(id))
	}
	return dst, true
}

// fixedWidth is the plain encoded width of an int-class value.
func fixedWidth(t ltval.Type) int {
	if t == ltval.Int32 {
		return 4
	}
	return 8
}

func encodePlainInts(dst []byte, vals []int64, t ltval.Type) []byte {
	if fixedWidth(t) == 4 {
		for _, v := range vals {
			u := uint32(v)
			dst = append(dst, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
		}
		return dst
	}
	for _, v := range vals {
		dst = appendU64le(dst, uint64(v))
	}
	return dst
}

func encodePlainFloats(dst []byte, vals []float64) []byte {
	for _, v := range vals {
		dst = appendU64le(dst, math.Float64bits(v))
	}
	return dst
}

func encodePlainBytes(dst []byte, c *colAcc) []byte {
	for i := range c.ends {
		cell := c.cell(i)
		dst = appendUvarint(dst, uint64(len(cell)))
		dst = append(dst, cell...)
	}
	return dst
}

func appendU64le(dst []byte, u uint64) []byte {
	return append(dst,
		byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
		byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
}

func fnv32(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	return h
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
