package ltbench

import (
	"fmt"
	"sync"
	"time"

	"littletable/internal/core"
	"littletable/internal/schema"
)

// Fig3Config scales the insert-with-merging experiment (§5.1.3). The paper
// inserts 16 GB of 4 kB rows with 16 MB flushes, 128 MB merged-tablet cap,
// a 100-tablet flush backlog, and a 90 s merge delay; the defaults scale
// each knob by the same factor so the phases — CPU-bound burst, disk-bound
// plateau, merge-competition dip, equilibrium — replay in miniature.
type Fig3Config struct {
	TotalBytes     int64
	RowBytes       int
	BatchBytes     int
	FlushSize      int
	MaxTabletSize  int64
	MaxPending     int
	MergeDelay     time.Duration
	WindowDuration time.Duration
	Dir            string
}

func (c *Fig3Config) defaults() {
	if c.TotalBytes == 0 {
		c.TotalBytes = 256 << 20
	}
	if c.RowBytes == 0 {
		c.RowBytes = 4 << 10
	}
	if c.BatchBytes == 0 {
		c.BatchBytes = 64 << 10
	}
	if c.FlushSize == 0 {
		c.FlushSize = 1 << 20
	}
	if c.MaxTabletSize == 0 {
		c.MaxTabletSize = 8 << 20
	}
	if c.MaxPending == 0 {
		c.MaxPending = 16
	}
	if c.MergeDelay == 0 {
		c.MergeDelay = 1500 * time.Millisecond
	}
	if c.WindowDuration == 0 {
		c.WindowDuration = 250 * time.Millisecond
	}
}

// fig3MaxOvershoot caps how far RunFig3 inserts past TotalBytes while it
// waits for the first merge: a small TotalBytes can be written before
// MergeDelay lets any tablet merge, and a figure with no merge is not
// Figure 3.
const fig3MaxOvershoot = 8

// RunFig3 regenerates Figure 3: insert throughput over time with active
// tablet merging, with merge completions as impulse events. It inserts
// TotalBytes, and past that until the first merge completes; it returns
// an error if none has by fig3MaxOvershoot × TotalBytes.
func RunFig3(cfg Fig3Config) (*Result, error) {
	cfg.defaults()
	dir, err := scratchDir(cfg.Dir, "fig3")
	if err != nil {
		return nil, err
	}
	defer scratchRemove(dir)
	tab, err := core.CreateTable(dir, "bench", benchSchema(), 0, core.Options{
		FlushSize:         cfg.FlushSize,
		MaxTabletSize:     cfg.MaxTabletSize,
		MaxPendingTablets: cfg.MaxPending,
		MergeDelay:        cfg.MergeDelay.Microseconds(),
	})
	if err != nil {
		return nil, err
	}
	defer tab.Close()

	start := time.Now()
	var mu sync.Mutex
	var mergeTimes []float64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	// Background maintenance: continuous flush + merge, competing with the
	// inserter for the "disk" exactly as §5.1.3 describes.
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			flushed, _ := tab.FlushStep()
			merged, err := tab.MergeStep()
			if err != nil {
				return
			}
			if merged {
				mu.Lock()
				mergeTimes = append(mergeTimes, time.Since(start).Seconds())
				mu.Unlock()
			}
			if !flushed && !merged {
				time.Sleep(2 * time.Millisecond)
			}
		}
	}()

	rowsPerBatch := cfg.BatchBytes / cfg.RowBytes
	if rowsPerBatch < 1 {
		rowsPerBatch = 1
	}
	rng := newXorshift(3)
	var windows []Point
	var written, windowWritten int64
	windowStart := time.Now()
	seq := int64(0)
	batch := make([]schema.Row, 0, rowsPerBatch)
	anyMerge := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(mergeTimes) > 0
	}
	for written < cfg.TotalBytes || !anyMerge() {
		if written >= fig3MaxOvershoot*cfg.TotalBytes {
			close(stop)
			wg.Wait()
			return nil, fmt.Errorf("ltbench: fig3: no merge after %d MB of inserts", written>>20)
		}
		batch = batch[:0]
		for i := 0; i < rowsPerBatch; i++ {
			batch = append(batch, benchRow(rng, seq, seq, cfg.RowBytes))
			seq++
		}
		if err := tab.Insert(batch); err != nil {
			close(stop)
			wg.Wait()
			return nil, err
		}
		n := int64(rowsPerBatch * cfg.RowBytes)
		written += n
		windowWritten += n
		if since := time.Since(windowStart); since >= cfg.WindowDuration {
			windows = append(windows, Point{
				X: time.Since(start).Seconds(),
				Y: float64(windowWritten) / since.Seconds() / 1e6,
			})
			windowWritten = 0
			windowStart = time.Now()
		}
	}
	close(stop)
	wg.Wait()

	res := &Result{
		Figure: "Figure 3",
		Title:  "Insert throughput over time with active tablet merging (measured)",
	}
	tseries := Series{Name: "insert throughput (MB/s) at t (s)"}
	for _, p := range windows {
		tseries.Points = append(tseries.Points, Point{X: p.X, Y: p.Y, Label: fmt.Sprintf("t=%.2fs", p.X)})
	}
	impulses := Series{Name: "merge completions (s)"}
	mu.Lock()
	for _, mt := range mergeTimes {
		impulses.Points = append(impulses.Points, Point{X: mt, Y: 1, Label: fmt.Sprintf("merge@%.2fs", mt)})
	}
	mu.Unlock()
	res.Series = append(res.Series, tseries, impulses)

	s := tab.Stats().Snapshot()
	res.Notes = append(res.Notes,
		fmt.Sprintf("merges: %d, write amplification %.2f (paper: ~2 at equilibrium)",
			s.Merges, s.WriteAmplification()),
		fmt.Sprintf("flushed %d tablets, %d MB; merged %d MB",
			s.TabletsFlushed, s.BytesFlushed>>20, s.BytesMerged>>20))
	return res, nil
}
