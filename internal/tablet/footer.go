package tablet

import (
	"encoding/json"
	"fmt"

	"littletable/internal/block"
	"littletable/internal/bloom"
	"littletable/internal/schema"
)

// blockMeta is one entry of the block index: the footer records the last
// key in each of the tablet's blocks (§3.2), plus enough metadata to read
// and time-filter the block without touching it.
type blockMeta struct {
	offset   int64          // file offset of the block record
	diskLen  int32          // on-disk record length including header
	rawLen   int32          // uncompressed block image length
	rowCount int32          // rows in the block
	enc      block.Encoding // block image layout (v2 footers; v1 is all-legacy)
	minTs    int64          // smallest row timestamp in the block
	maxTs    int64          // largest row timestamp in the block
	lastKey  []byte         // encoded primary key of the block's final row
}

// footer is the tablet's metadata, written compressed at the end of the
// file. On average indexes are ~0.5% of tablet size (§3.2), so the engine
// caches parsed footers "almost indefinitely".
type footer struct {
	sc       *schema.Schema
	blocks   []blockMeta
	rowCount int64
	minTs    int64
	maxTs    int64
	filter   *bloom.Filter // nil if the tablet was written without one
	// version is the footer layout this tablet was parsed from:
	// formatVersionV1 (legacy, no per-block encoding byte) or formatVersion,
	// the only layout the writer emits.
	version uint32
}

func (f *footer) marshal() []byte {
	scJSON, err := json.Marshal(f.sc)
	if err != nil {
		// Schemas are validated on construction; failure here is a bug.
		panic(fmt.Sprintf("tablet: marshal schema: %v", err))
	}
	var out []byte
	out = appendU32(out, formatVersion)
	out = appendU32(out, uint32(len(scJSON)))
	out = append(out, scJSON...)
	out = appendU64(out, uint64(f.rowCount))
	out = appendU64(out, uint64(f.minTs))
	out = appendU64(out, uint64(f.maxTs))
	out = appendU32(out, uint32(len(f.blocks)))
	for i := range f.blocks {
		b := &f.blocks[i]
		out = appendU64(out, uint64(b.offset))
		out = appendU32(out, uint32(b.diskLen))
		out = appendU32(out, uint32(b.rawLen))
		out = appendU32(out, uint32(b.rowCount))
		out = append(out, byte(b.enc))
		out = appendU64(out, uint64(b.minTs))
		out = appendU64(out, uint64(b.maxTs))
		out = appendU32(out, uint32(len(b.lastKey)))
		out = append(out, b.lastKey...)
	}
	var fb []byte
	if f.filter != nil {
		fb = f.filter.Marshal()
	}
	out = appendU32(out, uint32(len(fb)))
	out = append(out, fb...)
	return out
}

func parseFooter(b []byte) (*footer, error) {
	r := reader{b: b}
	ver := r.u32()
	if ver != formatVersionV1 && ver != formatVersion {
		return nil, fmt.Errorf("%w: footer version %d", ErrCorrupt, ver)
	}
	scJSON := r.bytes(int(r.u32()))
	f := &footer{version: ver}
	if r.err == nil {
		f.sc = &schema.Schema{}
		if err := json.Unmarshal(scJSON, f.sc); err != nil {
			return nil, fmt.Errorf("%w: footer schema: %v", ErrCorrupt, err)
		}
	}
	f.rowCount = int64(r.u64())
	f.minTs = int64(r.u64())
	f.maxTs = int64(r.u64())
	n := int(r.u32())
	if r.err == nil && (n < 0 || n > len(b)) {
		return nil, fmt.Errorf("%w: footer claims %d blocks", ErrCorrupt, n)
	}
	for i := 0; i < n && r.err == nil; i++ {
		var bm blockMeta
		bm.offset = int64(r.u64())
		bm.diskLen = int32(r.u32())
		bm.rawLen = int32(r.u32())
		bm.rowCount = int32(r.u32())
		if ver >= formatVersion {
			bm.enc = block.Encoding(r.u8())
			if r.err == nil && !bm.enc.Valid() {
				return nil, fmt.Errorf("%w: block %d has unknown encoding %d", ErrCorrupt, i, bm.enc)
			}
		}
		bm.minTs = int64(r.u64())
		bm.maxTs = int64(r.u64())
		bm.lastKey = r.bytes(int(r.u32()))
		f.blocks = append(f.blocks, bm)
	}
	fb := r.bytes(int(r.u32()))
	if r.err != nil {
		return nil, fmt.Errorf("%w: footer: %v", ErrCorrupt, r.err)
	}
	if len(fb) > 0 {
		filt, err := bloom.Unmarshal(fb)
		if err != nil {
			return nil, fmt.Errorf("%w: footer bloom: %v", ErrCorrupt, err)
		}
		f.filter = filt
	}
	return f, nil
}

// reader is a tiny cursor over a byte slice with sticky errors.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) u8() uint8 {
	if r.err != nil {
		return 0
	}
	if r.off+1 > len(r.b) {
		r.err = fmt.Errorf("short footer at %d", r.off)
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.off+4 > len(r.b) {
		r.err = fmt.Errorf("short footer at %d", r.off)
		return 0
	}
	v := getU32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.b) {
		r.err = fmt.Errorf("short footer at %d", r.off)
		return 0
	}
	v := getU64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *reader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.b) {
		r.err = fmt.Errorf("short footer at %d (want %d bytes)", r.off, n)
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}
