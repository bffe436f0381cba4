package ltbench

import (
	"fmt"

	"littletable/internal/diskmodel"
	"littletable/internal/iotrace"
	"littletable/internal/ltval"
	"littletable/internal/tablet"
	"littletable/internal/vfs"
)

// Fig6Config scales the first-row-latency experiment: queries for random
// keys over tables of 16 MB tablets, varying tablet count 1–32 via the
// query's timestamp bounds (§5.1.6). Caches are cleared before the first
// query; the second query hits cached footers and pays one block read per
// tablet.
type Fig6Config struct {
	TabletCounts []int
	RowBytes     int
	TabletBytes  int64
	Dir          string
}

func (c *Fig6Config) defaults() {
	if len(c.TabletCounts) == 0 {
		c.TabletCounts = []int{1, 2, 4, 8, 16, 24, 32}
	}
	if c.RowBytes == 0 {
		c.RowBytes = 128
	}
	if c.TabletBytes == 0 {
		// Scaled from the paper's 16 MB: seek counts per tablet (the
		// quantity measured) are size-independent.
		c.TabletBytes = 2 << 20
	}
}

// RunFig6 regenerates Figure 6: first-row latency vs tablet count, first
// query (cold: footer + block per tablet ≈ 4 seeks) and second query
// (footers cached: 1 seek per tablet), on the modeled disk.
func RunFig6(cfg Fig6Config) (*Result, error) {
	cfg.defaults()
	res := &Result{
		Figure: "Figure 6",
		Title:  "First-row latency vs. number of tablets (modeled disk)",
	}
	firstQ := Series{Name: "first query (ms)"}
	secondQ := Series{Name: "second query (ms)"}
	// One scratch tree per run, holding one tablet count's table at a
	// time: each count's tablets are removed once it has been measured.
	dir, err := scratchDir(cfg.Dir, "fig6")
	if err != nil {
		return nil, err
	}
	defer scratchRemove(dir)
	for _, count := range cfg.TabletCounts {
		sub, err := scratchDir(dir, fmt.Sprintf("t%d-", count))
		if err != nil {
			return nil, err
		}
		rowsPer := int(cfg.TabletBytes) / cfg.RowBytes
		paths, err := buildTablets(sub, count, rowsPer, cfg.RowBytes, 0)
		if err != nil {
			return nil, err
		}
		sizes, err := fileSizes(paths)
		if err != nil {
			return nil, err
		}
		ms1, ms2, err := firstRowLatencies(paths, sizes, count, rowsPer)
		if err != nil {
			return nil, err
		}
		scratchRemove(sub)
		firstQ.Points = append(firstQ.Points, Point{
			X: float64(count), Y: ms1, Label: fmt.Sprintf("%d tablets", count)})
		secondQ.Points = append(secondQ.Points, Point{
			X: float64(count), Y: ms2, Label: fmt.Sprintf("%d tablets", count)})
	}
	res.Series = append(res.Series, firstQ, secondQ)
	s1 := slopeMsPerTablet(firstQ.Points)
	s2 := slopeMsPerTablet(secondQ.Points)
	res.Notes = append(res.Notes,
		fmt.Sprintf("first-query slope %.1f ms/tablet (paper: 30.3, ≈4 seeks)", s1),
		fmt.Sprintf("second-query slope %.1f ms/tablet (paper: 8.3, ≈1 seek)", s2),
		fmt.Sprintf("slope ratio %.1f (paper: ~3.7)", s1/s2))
	return res, nil
}

// firstRowLatencies runs the two-query protocol of §5.1.6 against count
// tablets and models both latencies.
func firstRowLatencies(paths []string, sizes []int64, count, rowsPer int) (firstMs, secondMs float64, err error) {
	multi := iotrace.NewMulti()
	rng := newXorshift(uint64(count) + 7)

	// First query: open every tablet cold (footer reads) and seek one
	// random key in each.
	tabs := make([]*tablet.Tablet, count)
	files := make([]vfs.File, count)
	defer func() {
		for _, f := range files {
			if f != nil {
				f.Close()
			}
		}
	}()
	seekAll := func(probeSeq int64) error {
		for _, tab := range tabs {
			c, err := tab.Seek(probeKey(probeSeq), true)
			if err != nil {
				return err
			}
			c.Next() // first matching row
		}
		return nil
	}
	for i, p := range paths {
		f, err := vfs.OsFS{}.Open(p)
		if err != nil {
			return 0, 0, err
		}
		files[i] = f
		fi, err := f.Stat()
		if err != nil {
			return 0, 0, err
		}
		tab, err := tablet.OpenFile(multi.Wrap(i, f), fi.Size())
		if err != nil {
			return 0, 0, err
		}
		tabs[i] = tab
	}
	totalRows := int64(count * rowsPer)
	if err := seekAll(int64(rng.next() % uint64(totalRows))); err != nil {
		return 0, 0, err
	}
	trace1 := multi.Accesses()
	sim1 := diskmodel.Replay(diskmodel.Paper(), sizes, toTagged(trace1))

	// Second query: footers cached (tablets stay open), different key.
	multi.Reset()
	if err := seekAll(int64(rng.next() % uint64(totalRows))); err != nil {
		return 0, 0, err
	}
	trace2 := multi.Accesses()
	sim2 := diskmodel.Replay(diskmodel.Paper(), sizes, toTagged(trace2))
	for _, tab := range tabs {
		tab.Close()
		// files closed by the deferred loop; Close on tablet closes the
		// tracer which closes the file, so nil them out.
	}
	for i := range files {
		files[i] = nil
	}
	return sim1.Seconds() * 1000, sim2.Seconds() * 1000, nil
}

// probeKey builds a full key for row sequence seq, matching benchRow's key
// derivation.
func probeKey(seq int64) []ltval.Value {
	return []ltval.Value{
		ltval.NewInt64(seq >> 40),
		ltval.NewInt64(seq >> 30 & 0x3ff),
		ltval.NewInt64(seq >> 20 & 0x3ff),
		ltval.NewInt64(seq >> 10 & 0x3ff),
		ltval.NewInt64(seq & 0x3ff),
	}
}

// slopeMsPerTablet fits y = a + b·x by least squares and returns b.
func slopeMsPerTablet(pts []Point) float64 {
	n := float64(len(pts))
	var sx, sy, sxx, sxy float64
	for _, p := range pts {
		sx += p.X
		sy += p.Y
		sxx += p.X * p.X
		sxy += p.X * p.Y
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}
