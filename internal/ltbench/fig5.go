package ltbench

import (
	"container/heap"
	"fmt"

	"littletable/internal/diskmodel"
	"littletable/internal/iotrace"
	"littletable/internal/schema"
	"littletable/internal/tablet"
	"littletable/internal/vfs"
)

// Fig5Config scales the query-throughput-vs-tablets experiment. The paper
// fixes a 2 GB table of 128-byte rows and varies tablet count 1–128
// (§5.1.5); the default here scales the table to 32 MB, which preserves
// the per-tablet seek economics exactly (the modeled disk does not care
// how long the scan runs, only its access pattern).
type Fig5Config struct {
	TotalBytes   int64
	RowBytes     int
	TabletCounts []int
	Dir          string // working directory; empty = temp
}

func (c *Fig5Config) defaults() {
	if c.TotalBytes == 0 {
		// The paper uses 2 GB; 256 MB keeps every tablet larger than the
		// 1 MB readahead window at 128 tablets while running fast.
		c.TotalBytes = 256 << 20
	}
	if c.RowBytes == 0 {
		c.RowBytes = 128
	}
	if len(c.TabletCounts) == 0 {
		c.TabletCounts = []int{1, 2, 4, 8, 16, 32, 64, 128}
	}
}

// RunFig5 regenerates Figure 5: query throughput vs number of tablets,
// for 128 kB and 1 MB readahead, by merge-scanning the whole table and
// replaying the I/O trace through the §5.1.1 disk model.
func RunFig5(cfg Fig5Config) (*Result, error) {
	cfg.defaults()
	res := &Result{
		Figure: "Figure 5",
		Title:  "Query throughput vs. number of tablets (modeled disk)",
	}
	small := Series{Name: "128 kB readahead (MB/s)"}
	large := Series{Name: "1 MB readahead (MB/s)"}
	// One scratch tree per run, holding one tablet count's table at a
	// time: each count's tablets are removed once it has been measured.
	dir, err := scratchDir(cfg.Dir, "fig5")
	if err != nil {
		return nil, err
	}
	defer scratchRemove(dir)
	for _, count := range cfg.TabletCounts {
		sub, err := scratchDir(dir, fmt.Sprintf("t%d-", count))
		if err != nil {
			return nil, err
		}
		rowsPer := int(cfg.TotalBytes) / cfg.RowBytes / count
		paths, err := buildTablets(sub, count, rowsPer, cfg.RowBytes, 0)
		if err != nil {
			return nil, err
		}
		trace, logical, err := tracedMergeScan(paths)
		if err != nil {
			return nil, err
		}
		sizes, err := fileSizes(paths)
		if err != nil {
			return nil, err
		}
		scratchRemove(sub)
		tagged := toTagged(trace)
		simSmall := diskmodel.Replay(diskmodel.Paper(), sizes, tagged)
		simLarge := diskmodel.Replay(diskmodel.Paper().WithReadahead(1<<20), sizes, tagged)
		small.Points = append(small.Points, Point{
			X: float64(count), Y: simSmall.ThroughputBytesPerSec(logical) / 1e6,
			Label: fmt.Sprintf("%d tablets", count),
		})
		large.Points = append(large.Points, Point{
			X: float64(count), Y: simLarge.ThroughputBytesPerSec(logical) / 1e6,
			Label: fmt.Sprintf("%d tablets", count),
		})
	}
	res.Series = append(res.Series, small, large)
	first := small.Points[0].Y
	lastSmall := small.Points[len(small.Points)-1].Y
	lastLarge := large.Points[len(large.Points)-1].Y
	res.Notes = append(res.Notes,
		fmt.Sprintf("single tablet runs near disk peak: %.0f MB/s", first),
		fmt.Sprintf("many tablets level off at %.0f MB/s (128 kB) vs %.0f MB/s (1 MB): larger readahead sustains ~%.1fx more",
			lastSmall, lastLarge, lastLarge/lastSmall),
		"paper: levels off at ~24 MB/s (128 kB, drive cache assisted) and ~40 MB/s (1 MB)")
	return res, nil
}

// tracedMergeScan opens every tablet through an I/O tracer and performs
// the engine's key-ordered merge scan (§3.2), returning the interleaved
// trace and the logical bytes of rows returned.
func tracedMergeScan(paths []string) ([]iotrace.TaggedAccess, int64, error) {
	multi := iotrace.NewMulti()
	tabs := make([]*tablet.Tablet, len(paths))
	for i, p := range paths {
		f, err := vfs.OsFS{}.Open(p)
		if err != nil {
			return nil, 0, err
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, 0, err
		}
		tab, err := tablet.OpenFile(multi.Wrap(i, f), fi.Size())
		if err != nil {
			f.Close()
			return nil, 0, err
		}
		defer tab.Close()
		tabs[i] = tab
	}
	sc := tabs[0].Schema()
	// K-way merge over all tablet cursors, exactly the query path's shape.
	h := &scanHeap{sc: sc}
	for _, tab := range tabs {
		c := tab.Cursor(true)
		if c.Next() {
			heap.Push(h, scanItem{c: c, row: c.Row()})
		} else if err := c.Err(); err != nil {
			return nil, 0, err
		}
	}
	var logical int64
	for h.Len() > 0 {
		top := h.items[0]
		logical += int64(sc.EncodedRowSize(top.row))
		if top.c.Next() {
			h.items[0].row = top.c.Row()
			heap.Fix(h, 0)
		} else {
			if err := top.c.Err(); err != nil {
				return nil, 0, err
			}
			heap.Pop(h)
		}
	}
	return multi.Accesses(), logical, nil
}

func toTagged(in []iotrace.TaggedAccess) []diskmodel.Tagged {
	out := make([]diskmodel.Tagged, len(in))
	for i, a := range in {
		out[i] = diskmodel.Tagged{File: a.File, Offset: a.Offset, Len: a.Len}
	}
	return out
}

type scanItem struct {
	c   *tablet.Cursor
	row schema.Row
}

type scanHeap struct {
	sc    *schema.Schema
	items []scanItem
}

func (h *scanHeap) Len() int { return len(h.items) }
func (h *scanHeap) Less(i, j int) bool {
	return h.sc.CompareKeys(h.items[i].row, h.items[j].row) < 0
}
func (h *scanHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *scanHeap) Push(x interface{}) { h.items = append(h.items, x.(scanItem)) }
func (h *scanHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}
