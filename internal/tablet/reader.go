package tablet

import (
	"context"
	"errors"
	"fmt"
	"io"

	"littletable/internal/block"
	"littletable/internal/blockcache"
	"littletable/internal/bloom"
	"littletable/internal/ltval"
	"littletable/internal/schema"
	"littletable/internal/vfs"
)

// File is the read abstraction a Tablet needs. *os.File and vfs.File
// satisfy it; the iotrace package wraps one to record access patterns for
// the disk-model benchmarks (Figures 5 and 6).
type File interface {
	io.ReaderAt
	io.Closer
}

// Tablet is an open on-disk tablet. Concurrent reads are safe; each query
// opens its own Cursor.
type Tablet struct {
	f    File
	size int64
	ft   *footer
	path string

	// Optional shared block cache; tablets are immutable, so parsed blocks
	// cache safely under a handle id unique to this open instance.
	cache  *blockcache.Cache
	handle uint64
}

// SetBlockCache attaches a shared cache; handle must be unique among open
// tablets sharing it (the engine hands out a counter).
func (t *Tablet) SetBlockCache(c *blockcache.Cache, handle uint64) {
	t.cache = c
	t.handle = handle
}

// Open opens the tablet file at path on the real filesystem and loads its
// footer.
func Open(path string) (*Tablet, error) { return OpenFS(vfs.OsFS{}, path) }

// OpenFS opens the tablet file at path through fsys and loads its footer.
func OpenFS(fsys vfs.FS, path string) (*Tablet, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	t, err := OpenFile(f, st.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	t.path = path
	return t, nil
}

// OpenFile opens a tablet from any File of the given size. Reading the
// footer costs three accesses — trailer, footer header, footer body — which
// with the inode read is the paper's "three seeks to read a tablet's
// footer" (§3.5).
func OpenFile(f File, size int64) (*Tablet, error) {
	if size < trailerSize {
		return nil, fmt.Errorf("%w: %d bytes", ErrBadMagic, size)
	}
	var tr [trailerSize]byte
	if _, err := f.ReadAt(tr[:], size-trailerSize); err != nil {
		return nil, err
	}
	if getU64(tr[8:]) != magic {
		return nil, ErrBadMagic
	}
	footerOff := int64(getU64(tr[:]))
	payload, _, err := readRecord(f, footerOff, size-trailerSize)
	if err != nil {
		return nil, err
	}
	ft, err := parseFooter(payload)
	if err != nil {
		return nil, err
	}
	return &Tablet{f: f, size: size, ft: ft}, nil
}

// Close releases the underlying file.
func (t *Tablet) Close() error { return t.f.Close() }

// Path returns the file path, if opened by path.
func (t *Tablet) Path() string { return t.path }

// Schema returns the schema the tablet was written under.
func (t *Tablet) Schema() *schema.Schema { return t.ft.sc }

// RowCount returns the number of rows in the tablet.
func (t *Tablet) RowCount() int64 { return t.ft.rowCount }

// SizeBytes returns the on-disk size of the tablet file.
func (t *Tablet) SizeBytes() int64 { return t.size }

// ReadRawAt reads the tablet file's bytes at off, for shipping a sealed
// tablet to another shard verbatim: tablets are immutable once written, so
// a byte copy of the file plus a descriptor entry IS a replica. Reads past
// the end are truncated; io.EOF is only returned when off is at or past
// the end.
func (t *Tablet) ReadRawAt(p []byte, off int64) (int, error) {
	if off >= t.size {
		return 0, io.EOF
	}
	if max := t.size - off; int64(len(p)) > max {
		p = p[:max]
	}
	return t.f.ReadAt(p, off)
}

// Timespan returns the smallest and largest row timestamps.
func (t *Tablet) Timespan() (minTs, maxTs int64) { return t.ft.minTs, t.ft.maxTs }

// BlockCount returns the number of 64 kB blocks.
func (t *Tablet) BlockCount() int { return len(t.ft.blocks) }

// Filter returns the tablet's Bloom filter, or nil if written without one.
func (t *Tablet) Filter() *bloom.Filter { return t.ft.filter }

// MayContainKey consults the Bloom filter for an encoded full primary key
// (schema.AppendKey form). Without a filter it conservatively returns true.
func (t *Tablet) MayContainKey(encodedKey []byte) bool {
	if t.ft.filter == nil {
		return true
	}
	return t.ft.filter.MayContain(encodedKey)
}

// LastKey returns the largest primary key in the tablet, decoded, for the
// ascending-insert uniqueness fast path (§3.4.4).
func (t *Tablet) LastKey() ([]ltval.Value, error) {
	if len(t.ft.blocks) == 0 {
		return nil, nil
	}
	return t.ft.sc.DecodeKey(t.ft.blocks[len(t.ft.blocks)-1].lastKey)
}

// VerifyBlocks reads every block record and checks its framing and
// checksum, without touching the block cache. It detects latent
// corruption — bit flips, truncation inside a block — that footer
// loading alone cannot see, so the engine can quarantine a damaged tablet
// at open instead of failing queries later. It also parses each block
// and checks key order, which every lookup's binary search assumes: the
// footer's last keys strictly ascend, each block's rows strictly ascend,
// each block's first row sorts above the previous block's last key, and
// its last row is its footer key. A tablet whose keys were ordered by
// another comparison (one written before doubles had a total order, say,
// with NaN keys) fails here rather than serving rows a search misses.
func (t *Tablet) VerifyBlocks() error {
	sc := t.ft.sc
	var prevLast []ltval.Value
	var row, prev schema.Row
	for i := range t.ft.blocks {
		bm := &t.ft.blocks[i]
		last, err := sc.DecodeKey(bm.lastKey)
		if err != nil {
			return fmt.Errorf("%w: block %d last key: %v", ErrCorrupt, i, err)
		}
		if prevLast != nil && schema.CompareKeySlices(last, prevLast) <= 0 {
			return fmt.Errorf("%w: block %d last key %v not above block %d's %v", ErrCorrupt, i, last, i-1, prevLast)
		}
		payload, _, err := readRecord(t.f, bm.offset, t.size)
		if err != nil {
			return fmt.Errorf("block %d: %w", i, err)
		}
		if len(payload) != int(bm.rawLen) {
			return fmt.Errorf("%w: block %d raw length %d, want %d", ErrCorrupt, i, len(payload), bm.rawLen)
		}
		blk, err := block.Decode(sc, bm.enc, payload)
		if err != nil {
			return fmt.Errorf("block %d: %w", i, err)
		}
		if blk.Len() == 0 {
			return fmt.Errorf("%w: block %d holds no rows", ErrCorrupt, i)
		}
		for r := 0; r < blk.Len(); r++ {
			if row, err = blk.RowInto(row, r); err != nil {
				return fmt.Errorf("block %d: %w", i, err)
			}
			switch {
			case r > 0 && sc.CompareKeys(row, prev) <= 0:
				return fmt.Errorf("%w: block %d row %d key %v not above row %d's %v",
					ErrCorrupt, i, r, sc.KeyOf(row), r-1, sc.KeyOf(prev))
			case r == 0 && prevLast != nil && sc.CompareRowToKey(row, prevLast) <= 0:
				return fmt.Errorf("%w: block %d first key %v not above block %d's last %v",
					ErrCorrupt, i, sc.KeyOf(row), i-1, prevLast)
			}
			row, prev = prev, row
		}
		if sc.CompareRowToKey(prev, last) != 0 {
			return fmt.Errorf("%w: block %d ends at key %v, its footer says %v", ErrCorrupt, i, sc.KeyOf(prev), last)
		}
		prevLast = last
	}
	return nil
}

// loadBlock reads, verifies, and parses block i, consulting the shared
// block cache when attached.
func (t *Tablet) loadBlock(i int) (*block.Block, error) {
	return t.loadBlockCtx(nil, i)
}

// loadBlockCtx is loadBlock with a cancellation context (nil = none). All
// block reads funnel through here: when a cache is attached, concurrent
// loads of the same block are deduplicated by the cache's singleflight, so
// overlapping queries on one cold tablet read and parse each block once.
func (t *Tablet) loadBlockCtx(ctx context.Context, i int) (*block.Block, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	if t.cache == nil {
		blk, _, err := t.readParseBlock(ctx, i)
		return blk, err
	}
	v, err := t.cache.GetOrLoad(blockcache.Key{Handle: t.handle, Index: i}, func() (interface{}, int64, error) {
		blk, size, err := t.readParseBlock(ctx, i)
		return blk, size, err
	})
	if err != nil {
		// A singleflight leader cancelled by its own query poisons the
		// shared result; if this caller is still live, load directly
		// rather than failing a healthy query on someone else's timeout.
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if ctx == nil || ctx.Err() == nil {
				blk, _, derr := t.readParseBlock(ctx, i)
				return blk, derr
			}
		}
		return nil, err
	}
	return v.(*block.Block), nil
}

// readParseBlock does the physical read, verification, and parse of block
// i, reporting the parsed block and the length of its encoded image — what
// the block cache charges for it, not what the decoded vectors occupy.
func (t *Tablet) readParseBlock(ctx context.Context, i int) (*block.Block, int64, error) {
	bm := &t.ft.blocks[i]
	payload, _, err := readRecord(vfs.CtxReaderAt{Ctx: ctx, R: t.f}, bm.offset, t.size)
	if err != nil {
		return nil, 0, err
	}
	if len(payload) != int(bm.rawLen) {
		return nil, 0, fmt.Errorf("%w: block %d raw length %d, want %d", ErrCorrupt, i, len(payload), bm.rawLen)
	}
	blk, err := block.Decode(t.ft.sc, bm.enc, payload)
	if err != nil {
		return nil, 0, err
	}
	return blk, int64(bm.rawLen), nil
}

// FormatVersion returns the footer layout version the tablet was written
// with: 1 for pre-columnar tablets (and legacy-mode output), 2 for tablets
// whose footer records per-block encodings.
func (t *Tablet) FormatVersion() uint32 { return t.ft.version }

// comparePrefix orders a full stored key against a possibly-short probe
// key, treating the probe as a prefix (equal prefix compares equal).
func comparePrefix(sc *schema.Schema, fullKey []byte, probe []ltval.Value) (int, error) {
	full, err := sc.DecodeKey(fullKey)
	if err != nil {
		return 0, err
	}
	n := min(len(full), len(probe))
	return schema.CompareKeySlices(full[:n], probe[:n]), nil
}

// searchBlocks returns the index of the first block whose last key is >=
// probe (prefix semantics), or BlockCount() if none.
func (t *Tablet) searchBlocks(probe []ltval.Value) (int, error) {
	lo, hi := 0, len(t.ft.blocks)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		c, err := comparePrefix(t.ft.sc, t.ft.blocks[mid].lastKey, probe)
		if err != nil {
			return 0, err
		}
		if c < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// searchBlocksAfter returns the index of the first block whose last key is
// strictly > probe (prefix semantics).
func (t *Tablet) searchBlocksAfter(probe []ltval.Value) (int, error) {
	lo, hi := 0, len(t.ft.blocks)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		c, err := comparePrefix(t.ft.sc, t.ft.blocks[mid].lastKey, probe)
		if err != nil {
			return 0, err
		}
		if c <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, nil
}
