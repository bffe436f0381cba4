// Benchmarks regenerating the paper's evaluation (§5): one benchmark per
// table and figure, wrapping internal/ltbench's experiments at reduced
// scale. Run `go test -bench=. -benchmem` for the suite or cmd/ltbench for
// the full printed series; EXPERIMENTS.md records paper-vs-measured.
package littletable_test

import (
	"fmt"
	"testing"

	"littletable"
	"littletable/internal/clock"
	"littletable/internal/ltbench"
)

// BenchmarkHeadlineFirstRowAndScan regenerates the §1 headline: first-row
// latency (modeled ≈31 ms) and scan rate (≈500k rows/s regime).
func BenchmarkHeadlineFirstRowAndScan(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := ltbench.RunHeadline(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		pts := res.Series[0].Points
		b.ReportMetric(pts[0].Y, "first-row-ms")
		b.ReportMetric(pts[3].Y, "rows/s-effective")
	}
}

// BenchmarkInsertBatchSize regenerates Figure 2's solid line at three
// representative batch sizes.
func BenchmarkInsertBatchSize(b *testing.B) {
	for _, batch := range []int{256, 16 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			cfg := ltbench.Fig2Config{
				BytesPerRun: 4 << 20,
				BatchSizes:  []int{batch},
				RowSizes:    []int{128}, // only the batch series matters here
				Dir:         b.TempDir(),
			}
			for i := 0; i < b.N; i++ {
				res, err := ltbench.RunFig2(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Series[0].Points[0].Y, "MB/s")
			}
		})
	}
}

// BenchmarkInsertRowSize regenerates Figure 2's dashed line at three
// representative row sizes.
func BenchmarkInsertRowSize(b *testing.B) {
	for _, rowSize := range []int{32, 512, 4 << 10} {
		b.Run(fmt.Sprintf("row=%d", rowSize), func(b *testing.B) {
			cfg := ltbench.Fig2Config{
				BytesPerRun: 4 << 20,
				BatchSizes:  []int{64 << 10},
				RowSizes:    []int{rowSize},
				Dir:         b.TempDir(),
			}
			for i := 0; i < b.N; i++ {
				res, err := ltbench.RunFig2(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Series[1].Points[0].Y, "MB/s")
			}
		})
	}
}

// BenchmarkInsertWithMerging regenerates Figure 3 in miniature, reporting
// the equilibrium write amplification (paper: ~2).
func BenchmarkInsertWithMerging(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := ltbench.RunFig3(ltbench.Fig3Config{
			TotalBytes: 64 << 20,
			Dir:        b.TempDir(),
		})
		if err != nil {
			b.Fatal(err)
		}
		// The write-amplification note carries the figure's conclusion;
		// surface merges as a metric.
		b.ReportMetric(float64(len(res.Series[1].Points)), "merges")
	}
}

// BenchmarkMultiWriter regenerates Figure 4 at 1 and 4 writers.
func BenchmarkMultiWriter(b *testing.B) {
	for _, writers := range []int{1, 4} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			cfg := ltbench.Fig4Config{
				BytesPerWriter: 2 << 20,
				WriterCounts:   []int{writers},
				Dir:            b.TempDir(),
			}
			for i := 0; i < b.N; i++ {
				res, err := ltbench.RunFig4(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Series[0].Points[0].Y, "MB/s")
			}
		})
	}
}

// BenchmarkQueryTablets regenerates Figure 5 at three tablet counts,
// reporting modeled disk throughput for both readaheads.
func BenchmarkQueryTablets(b *testing.B) {
	for _, tablets := range []int{1, 8, 16} {
		b.Run(fmt.Sprintf("tablets=%d", tablets), func(b *testing.B) {
			cfg := ltbench.Fig5Config{
				TotalBytes:   32 << 20,
				TabletCounts: []int{tablets},
				Dir:          b.TempDir(),
			}
			for i := 0; i < b.N; i++ {
				res, err := ltbench.RunFig5(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Series[0].Points[0].Y, "MB/s-128kB-ra")
				b.ReportMetric(res.Series[1].Points[0].Y, "MB/s-1MB-ra")
			}
		})
	}
}

// BenchmarkFirstRowLatency regenerates Figure 6 at three tablet counts,
// reporting modeled first- and second-query latency.
func BenchmarkFirstRowLatency(b *testing.B) {
	for _, tablets := range []int{1, 8, 16} {
		b.Run(fmt.Sprintf("tablets=%d", tablets), func(b *testing.B) {
			cfg := ltbench.Fig6Config{
				TabletCounts: []int{tablets},
				TabletBytes:  1 << 20,
				Dir:          b.TempDir(),
			}
			for i := 0; i < b.N; i++ {
				res, err := ltbench.RunFig6(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Series[0].Points[0].Y, "first-ms")
				b.ReportMetric(res.Series[1].Points[0].Y, "second-ms")
			}
		})
	}
}

// BenchmarkScanRatio regenerates Figure 9's measured scan efficiency.
func BenchmarkScanRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := ltbench.RunFig9(ltbench.Fig9Config{
			Tables:  4,
			Samples: 200,
			Queries: 60,
			Dir:     b.TempDir(),
		})
		if err != nil {
			b.Fatal(err)
		}
		// p50 of the ratio CDF.
		b.ReportMetric(res.Series[0].Points[2].Y, "scan-ratio-p50")
	}
}

// BenchmarkProductionDistributions regenerates Figures 7, 8, and 10 (pure
// synthesis; cheap).
func BenchmarkProductionDistributions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = ltbench.RunFig7(100, 1)
		_ = ltbench.RunFig8(270, 2)
		_ = ltbench.RunFig10(5000, 3)
	}
}

// BenchmarkProductionRates regenerates §5.2.3's rates simulation.
func BenchmarkProductionRates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := ltbench.RunRates(ltbench.RatesConfig{
			SimulatedHours: 1,
			Dir:            b.TempDir(),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Series[0].Points[2].Y, "read:write")
	}
}

// BenchmarkMergePolicy regenerates the appendix's bound measurements.
func BenchmarkMergePolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := ltbench.RunAppendix(ltbench.AppendixConfig{
			Flushes: 32,
			Dir:     b.TempDir(),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Series[1].Points[1].Y, "stable-tablets")
		b.ReportMetric(res.Series[1].Points[3].Y, "rewrites/row")
	}
}

// BenchmarkPublicAPIInsertQuery exercises the embedded public API end to
// end: the baseline "how fast is the library for a Go user" number.
func BenchmarkPublicAPIInsertQuery(b *testing.B) {
	dir := b.TempDir()
	sc := littletable.MustSchema([]littletable.Column{
		{Name: "network", Type: littletable.Int64},
		{Name: "device", Type: littletable.Int64},
		{Name: "ts", Type: littletable.Timestamp},
		{Name: "rate", Type: littletable.Double},
	}, []string{"network", "device", "ts"})
	tab, err := littletable.CreateTable(dir, "usage", sc, 0, littletable.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer tab.Close()
	now := littletable.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row := littletable.Row{
			littletable.NewInt64(int64(i % 8)),
			littletable.NewInt64(int64(i % 64)),
			littletable.NewTimestamp(now + int64(i)*clock.Second),
			littletable.NewDouble(float64(i)),
		}
		if err := tab.Insert([]littletable.Row{row}); err != nil {
			b.Fatal(err)
		}
		if i%1024 == 1023 {
			q := littletable.NewQuery()
			q.Lower = []littletable.Value{littletable.NewInt64(int64(i % 8))}
			q.Upper = q.Lower
			q.MinTs = now
			q.MaxTs = now + int64(i)*clock.Second
			it, err := tab.Query(q)
			if err != nil {
				b.Fatal(err)
			}
			for it.Next() {
			}
			it.Close()
		}
	}
}

// BenchmarkAblations measures the two design-choice ablations (period-aware
// merging and Bloom filters) against their baselines.
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := ltbench.RunAblations(ltbench.AblationConfig{
			Days:       14,
			RowsPerDay: 500,
			Dir:        b.TempDir(),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Series[0].Points[0].Y, "scan-ratio-littletable")
		b.ReportMetric(res.Series[0].Points[1].Y, "scan-ratio-baseline")
	}
}
