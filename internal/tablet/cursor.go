package tablet

import (
	"context"

	"littletable/internal/block"
	"littletable/internal/ltval"
	"littletable/internal/schema"
)

// ReadOptions tune how a cursor reads its tablet.
type ReadOptions struct {
	// Ctx cancels in-flight and future block loads, including the
	// prefetch pipeline's. nil means never cancelled.
	Ctx context.Context

	// PrefetchDepth enables a background block prefetcher reading up to
	// this many blocks ahead of the cursor. <= 0 disables prefetch and
	// the cursor loads blocks synchronously, as before.
	PrefetchDepth int
}

// Cursor iterates a tablet's rows in key order. It decodes one block at a
// time into a row buffer it owns. Cursors are not safe for concurrent use,
// but many cursors may read one Tablet concurrently. A cursor opened with
// a PrefetchDepth owns a goroutine; Close reaps it (Close is a no-op
// otherwise, and always idempotent).
type Cursor struct {
	t   *Tablet
	asc bool
	ro  ReadOptions
	// Blocks outside [loBlk, hiBlk] cannot hold a row inside the cursor's
	// key range; neither the cursor nor its prefetcher reads them.
	loBlk, hiBlk int
	blkIdx       int
	rowIdx       int // -2: the last row of block blkIdx, resolved on load
	blk          *block.Block
	row          schema.Row
	err          error
	done         bool
	closed       bool
	pf           *prefetcher

	// BlocksRead counts block loads, for scan-efficiency accounting
	// (Figure 9) and the disk-model benches.
	BlocksRead int

	// PrefetchHits counts blocks served by the prefetch pipeline rather
	// than a synchronous load.
	PrefetchHits int
}

// Cursor returns an iterator over the entire tablet.
func (t *Tablet) Cursor(asc bool) *Cursor {
	c, _ := t.SeekRange(nil, nil, asc, ReadOptions{}) // no bound, so no index search to fail
	return c
}

// Seek returns a cursor positioned so that the first Next yields:
//
//   - ascending: the first row with key >= probe (prefix semantics);
//   - descending: the last row with key <= probe (rows matching a short
//     probe as a prefix count as equal, so descending lands on the last
//     row of the equal range).
func (t *Tablet) Seek(probe []ltval.Value, asc bool) (*Cursor, error) {
	if asc {
		return t.SeekRange(probe, nil, true, ReadOptions{})
	}
	return t.SeekRange(nil, probe, false, ReadOptions{})
}

// SeekRange returns a cursor over the key range [lower, upper] (prefix
// semantics, nil = unbounded), positioned as Seek positions it on the
// bound the direction starts from. The far bound limits which blocks are
// read, not which rows are yielded: the footer's last-key index names the
// last block that can hold an in-range row, the cursor and its prefetch
// pipeline end there, and rows of that block past the bound are the
// caller's to stop at.
func (t *Tablet) SeekRange(lower, upper []ltval.Value, asc bool, ro ReadOptions) (*Cursor, error) {
	c := &Cursor{t: t, asc: asc, ro: ro, hiBlk: len(t.ft.blocks) - 1}
	var err error
	if lower != nil {
		// Every row of a block whose last key is < lower is out of range.
		if c.loBlk, err = t.searchBlocks(lower); err != nil {
			return nil, err
		}
	}
	if upper != nil {
		// The first block whose last key is > upper may still begin with
		// in-range rows; every later block starts past it.
		hi, err := t.searchBlocksAfter(upper)
		if err != nil {
			return nil, err
		}
		c.hiBlk = min(hi, c.hiBlk)
	}
	if c.loBlk > c.hiBlk {
		c.done = true
		return c, nil
	}
	start := lower
	c.blkIdx = c.loBlk
	if !asc {
		start = upper
		c.blkIdx, c.rowIdx = c.hiBlk, -2
	}
	if start != nil {
		// Position inside the first block. A landing spot just outside it
		// (descending with every row > upper, or a corrupt index) is fine:
		// Next steps to the adjacent block.
		if c.blk, err = t.loadBlockCtx(ro.Ctx, c.blkIdx); err != nil {
			return nil, err
		}
		c.BlocksRead++
		if asc {
			c.rowIdx, err = c.blk.Search(start)
		} else {
			c.rowIdx, err = c.blk.SearchAfter(start)
			c.rowIdx--
		}
		if err != nil {
			return nil, err
		}
	}
	c.startPrefetch()
	return c, nil
}

// startPrefetch launches the block prefetch pipeline over the blocks of
// the cursor's range it has not yet loaded.
func (c *Cursor) startPrefetch() {
	if c.ro.PrefetchDepth <= 0 {
		return
	}
	start := c.blkIdx
	if c.blk != nil {
		if c.asc {
			start++
		} else {
			start--
		}
	}
	if start < c.loBlk || start > c.hiBlk {
		return
	}
	c.pf = newPrefetcher(c, start)
}

// fetchBlock returns block i: the next one off the prefetch pipeline when
// one is running (it yields exactly the cursor's remaining blocks, in the
// cursor's order), a synchronous load otherwise.
func (c *Cursor) fetchBlock(i int) (*block.Block, error) {
	if c.pf != nil {
		if res, ok := <-c.pf.ch; ok {
			if res.err == nil {
				c.PrefetchHits++
			}
			return res.blk, res.err
		}
	}
	return c.t.loadBlockCtx(c.ro.Ctx, i)
}

// Next advances to the next row, reporting availability. On I/O error it
// returns false and records the error in Err.
func (c *Cursor) Next() bool {
	if c.done || c.err != nil {
		return false
	}
	if c.blk == nil {
		if c.blkIdx < c.loBlk || c.blkIdx > c.hiBlk {
			c.done = true
			return false
		}
		blk, err := c.fetchBlock(c.blkIdx)
		if err != nil {
			c.err = err
			return false
		}
		c.BlocksRead++
		c.blk = blk
		if c.rowIdx == -2 {
			c.rowIdx = blk.Len() - 1
		}
	}
	if c.rowIdx < 0 || c.rowIdx >= c.blk.Len() {
		// Step to the adjacent block.
		c.blk = nil
		if c.asc {
			c.blkIdx++
			c.rowIdx = 0
		} else {
			c.blkIdx--
			c.rowIdx = -2
		}
		return c.Next()
	}
	if c.row, c.err = c.blk.RowInto(c.row, c.rowIdx); c.err != nil {
		return false
	}
	if c.asc {
		c.rowIdx++
	} else {
		c.rowIdx--
	}
	return true
}

// Row returns the current row, valid after Next reports true; the cursor
// reuses it, so it is overwritten by the following Next, and byte-valued
// cells alias the block buffer.
func (c *Cursor) Row() schema.Row { return c.row }

// Err returns the first I/O or corruption error the cursor hit.
func (c *Cursor) Err() error { return c.err }

// Close stops and reaps the prefetch pipeline, if any. It is idempotent
// and must be called on cursors opened with a PrefetchDepth; it is a
// harmless no-op on plain cursors.
func (c *Cursor) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.done = true
	if c.pf != nil {
		c.pf.Close()
		c.pf = nil
	}
}

// fetchResult is one prefetched block (or the error that ended the
// pipeline).
type fetchResult struct {
	blk *block.Block
	err error
}

// prefetcher reads blocks ahead of a cursor on its own goroutine, keeping
// up to cap(ch) parsed blocks buffered. The merge loop of a multi-tablet
// query drains one source at a time; every other source's pipeline keeps
// loading in the background, so block latency overlaps instead of
// serializing (the paper's readahead economics, §5.1.5, applied above the
// OS).
type prefetcher struct {
	ch   chan fetchResult
	stop chan struct{}
	done chan struct{}
}

// newPrefetcher starts a pipeline over c's blocks from start to the end
// of its range, in its direction. The goroutine exits at the range end,
// on the first load error (a cancelled ReadOptions.Ctx is one), or on
// Close.
func newPrefetcher(c *Cursor, start int) *prefetcher {
	p := &prefetcher{
		ch:   make(chan fetchResult, c.ro.PrefetchDepth), // the read-ahead bound
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	t, ctx, lo, hi := c.t, c.ro.Ctx, c.loBlk, c.hiBlk
	step := 1
	if !c.asc {
		step = -1
	}
	go func() {
		defer close(p.done)
		defer close(p.ch)
		for i := start; i >= lo && i <= hi; i += step {
			blk, err := t.loadBlockCtx(ctx, i)
			select {
			case p.ch <- fetchResult{blk: blk, err: err}:
				if err != nil {
					return
				}
			case <-p.stop:
				return
			}
		}
	}()
	return p
}

// Close stops the pipeline and waits for its goroutine to exit. Buffered
// results are discarded.
func (p *prefetcher) Close() {
	close(p.stop)
	// Drain so a blocked send wakes promptly; the channel closes when the
	// goroutine exits.
	for range p.ch {
	}
	<-p.done
}
