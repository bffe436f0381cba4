// Package tablet implements LittleTable's on-disk tablets (§3.2, §3.5): a
// sequence of rows sorted by primary key, grouped into 64 kB blocks, with a
// compressed footer holding the schema, a block index recording the last
// key in each block, the tablet's timespan, and a Bloom filter over its
// keys. The final words of the file record the footer's location, so a
// reader reaches any row in a cold tablet with three metadata reads plus
// one block read — the four seeks behind Figure 6's 30.3 ms/tablet slope.
package tablet

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"littletable/internal/lzf"
)

// Format constants.
const (
	// magic identifies a LittleTable tablet file (ASCII "LTTBL001").
	magic uint64 = 0x4c5454424c303031

	// recordHeaderSize is the per-record header: flags(1) rawLen(4)
	// diskLen(4) crc(4).
	recordHeaderSize = 13

	// trailerSize is the fixed tail: footerOffset(8) magic(8).
	trailerSize = 16

	// flagCompressed marks a record whose payload is lzf-compressed.
	flagCompressed = 1 << 0

	// formatVersion is stored in the footer for forward compatibility.
	// Version 2 records a per-block encoding byte (block.Encoding) in the
	// block index; version 1 is still parsed (all its blocks are legacy),
	// and the writer still emits it in legacy-encoding mode so old readers
	// can parse new output.
	formatVersion = 2

	// formatVersionV1 is the pre-columnar footer layout.
	formatVersionV1 = 1
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Errors reported by the tablet layer.
var (
	ErrCorrupt    = errors.New("tablet: corrupt tablet file")
	ErrBadMagic   = errors.New("tablet: not a tablet file")
	ErrOutOfOrder = errors.New("tablet: rows appended out of key order")
	ErrClosed     = errors.New("tablet: use after close")
)

// appendRecord frames payload (compressing it when that helps) and appends
// the record to dst, returning the extended slice and the on-disk record
// length. The payload is compressed straight into dst, after a header
// patched once the body is known, so with dst's capacity reserved
// (recordHeaderSize + lzf.MaxCompressedLen) framing allocates nothing.
func appendRecord(dst, payload []byte, tryCompress bool) ([]byte, int) {
	start := len(dst)
	dst = append(dst, make([]byte, recordHeaderSize)...)
	var flags byte
	if tryCompress {
		dst = lzf.Compress(dst, payload)
		if len(dst)-start-recordHeaderSize < len(payload) {
			flags = flagCompressed
		} else {
			dst = dst[:start+recordHeaderSize]
		}
	}
	if flags == 0 {
		dst = append(dst, payload...)
	}
	hdr, body := dst[start:], dst[start+recordHeaderSize:]
	hdr[0] = flags
	putU32(hdr[1:], uint32(len(payload)))
	putU32(hdr[5:], uint32(len(body)))
	putU32(hdr[9:], crc32.Checksum(body, crcTable))
	return dst, len(dst) - start
}

// readRecord reads and verifies the record at off, returning its
// decompressed payload and the on-disk record length.
func readRecord(r io.ReaderAt, off int64, fileSize int64) ([]byte, int, error) {
	var hdr [recordHeaderSize]byte
	if off < 0 || off+recordHeaderSize > fileSize {
		return nil, 0, fmt.Errorf("%w: record header at %d beyond file", ErrCorrupt, off)
	}
	if _, err := r.ReadAt(hdr[:], off); err != nil {
		return nil, 0, err
	}
	flags := hdr[0]
	rawLen := int(getU32(hdr[1:]))
	diskLen := int(getU32(hdr[5:]))
	crc := getU32(hdr[9:])
	if diskLen < 0 || rawLen < 0 || off+int64(recordHeaderSize+diskLen) > fileSize {
		return nil, 0, fmt.Errorf("%w: record at %d overruns file", ErrCorrupt, off)
	}
	// The lzf token format cannot expand a byte into more than 255 output
	// bytes, so a rawLen beyond that bound is corruption. Rejecting it here
	// — before the CRC pass would — keeps a flipped header byte from
	// sizing a multi-gigabyte zeroed buffer.
	if flags&flagCompressed != 0 && rawLen > 255*diskLen+64 {
		return nil, 0, fmt.Errorf("%w: record at %d claims %d raw bytes from %d on disk",
			ErrCorrupt, off, rawLen, diskLen)
	}
	body := make([]byte, diskLen)
	if _, err := io.ReadFull(io.NewSectionReader(r, off+recordHeaderSize, int64(diskLen)), body); err != nil {
		return nil, 0, err
	}
	if crc32.Checksum(body, crcTable) != crc {
		return nil, 0, fmt.Errorf("%w: record at %d fails checksum", ErrCorrupt, off)
	}
	if flags&flagCompressed != 0 {
		raw, err := lzf.Decompress(make([]byte, rawLen), body)
		if err != nil {
			return nil, 0, fmt.Errorf("%w: record at %d: %v", ErrCorrupt, off, err)
		}
		return raw, recordHeaderSize + diskLen, nil
	}
	if rawLen != diskLen {
		return nil, 0, fmt.Errorf("%w: uncompressed record length mismatch", ErrCorrupt)
	}
	return body, recordHeaderSize + diskLen, nil
}

func putU32(b []byte, u uint32) {
	b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
}

func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func getU64(b []byte) uint64 {
	return uint64(getU32(b)) | uint64(getU32(b[4:]))<<32
}

func appendU32(dst []byte, u uint32) []byte {
	return append(dst, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
}

func appendU64(dst []byte, u uint64) []byte {
	dst = appendU32(dst, uint32(u))
	return appendU32(dst, uint32(u>>32))
}
