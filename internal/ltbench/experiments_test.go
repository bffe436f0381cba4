package ltbench

import (
	"math"
	"testing"
	"time"

	"littletable/internal/race"
)

func TestHeadlineShape(t *testing.T) {
	res, err := RunHeadline(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pts := res.Series[0].Points
	byLabel := map[string]float64{}
	for _, p := range pts {
		byLabel[p.Label] = p.Y
	}
	firstRow := byLabel["first-row latency (ms, modeled)"]
	// Paper: 31 ms; our model folds the inode seek, expect 24–36 ms.
	if firstRow < 20 || firstRow > 40 {
		t.Errorf("first-row latency %.1f ms, want ≈28-31", firstRow)
	}
	scan := byLabel["scan rate (rows/s, effective)"]
	// The 500k rows/s regime: hundreds of thousands, not tens or tens of
	// millions.
	if scan < 200_000 || scan > 5_000_000 {
		t.Errorf("effective scan rate %.0f rows/s out of regime", scan)
	}
	ins := byLabel["insert fraction of modeled disk peak"]
	if ins <= 0 || ins > 1.5 {
		t.Errorf("insert fraction %.2f nonsensical", ins)
	}
}

func TestFig2Shape(t *testing.T) {
	res, err := RunFig2(Fig2Config{
		BytesPerRun: 2 << 20,
		BatchSizes:  []int{256, 64 << 10},
		RowSizes:    []int{32, 4 << 10},
		Dir:         t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if race.Enabled {
		t.Skip("throughput shapes are noise under the race detector")
	}
	batch := res.Series[0].Points
	if batch[1].Y <= batch[0].Y {
		t.Errorf("large batches (%.1f) not faster than tiny ones (%.1f)", batch[1].Y, batch[0].Y)
	}
	rows := res.Series[1].Points
	if rows[1].Y <= rows[0].Y {
		t.Errorf("large rows (%.1f) not faster than tiny ones (%.1f)", rows[1].Y, rows[0].Y)
	}
}

func TestFig3Shape(t *testing.T) {
	res, err := RunFig3(Fig3Config{
		TotalBytes:     32 << 20,
		FlushSize:      512 << 10,
		MaxTabletSize:  4 << 20,
		MaxPending:     8,
		MergeDelay:     300 * time.Millisecond,
		WindowDuration: 50 * time.Millisecond,
		Dir:            t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series[0].Points) < 3 {
		t.Fatal("too few throughput windows")
	}
	if len(res.Series[1].Points) == 0 {
		t.Fatal("no merges fired during sustained inserts")
	}
	// Merging must cost something: peak window above the minimum window.
	var minY, maxY float64 = math.Inf(1), 0
	for _, p := range res.Series[0].Points {
		if p.Y < minY {
			minY = p.Y
		}
		if p.Y > maxY {
			maxY = p.Y
		}
	}
	if maxY <= minY {
		t.Error("throughput flat despite merge competition")
	}
}

func TestFig4RunsAndModels(t *testing.T) {
	res, err := RunFig4(Fig4Config{
		BytesPerWriter: 1 << 20,
		WriterCounts:   []int{1, 2},
		Dir:            t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatal("missing modeled series")
	}
	measured := res.Series[0].Points
	model := res.Series[1].Points
	if measured[0].Y <= 0 {
		t.Error("zero measured throughput")
	}
	// The model always scales until the disk cap.
	if model[1].Y < model[0].Y {
		t.Error("model does not scale")
	}
}

func TestFig7To10Run(t *testing.T) {
	f7 := RunFig7(60, 1)
	if len(f7.Series) != 2 || len(f7.Series[0].Points) == 0 {
		t.Error("fig7 empty")
	}
	f8 := RunFig8(100, 2)
	if len(f8.Series) != 2 {
		t.Error("fig8 empty")
	}
	f10 := RunFig10(2000, 3)
	if len(f10.Series) != 2 {
		t.Error("fig10 empty")
	}
}

func TestFig9Shape(t *testing.T) {
	res, err := RunFig9(Fig9Config{
		Tables:  3,
		Samples: 120,
		Queries: 40,
		Dir:     t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	p50 := res.Series[0].Points[2].Y
	// Paper: mean 1.4, p80 ≤ 3.3 — clustered queries scan near what they
	// return.
	if p50 < 1 || p50 > 4 {
		t.Errorf("scan-ratio p50 %.2f outside the paper's regime", p50)
	}
}

func TestRatesShape(t *testing.T) {
	res, err := RunRates(RatesConfig{
		Networks:       2,
		DevicesPerNet:  5,
		SimulatedHours: 1,
		Dir:            t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	pts := res.Series[0].Points
	inserted, returned, ratio := pts[0].Y, pts[1].Y, pts[2].Y
	if inserted <= 0 || returned <= 0 {
		t.Fatal("no traffic simulated")
	}
	// Read-heavy, roughly the paper's order of magnitude of 10.
	if ratio < 2 || ratio > 100 {
		t.Errorf("read:write ratio %.1f far from the paper's ~10", ratio)
	}
}

func TestAppendixBounds(t *testing.T) {
	res, err := RunAppendix(AppendixConfig{Flushes: 24, RowsPerFlush: 128, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	acc := res.Series[1].Points
	byLabel := map[string]float64{}
	for _, p := range acc {
		byLabel[p.Label] = p.Y
	}
	total := byLabel["rows inserted"]
	if byLabel["stable tablet count"] > 3*math.Log2(total)+3 {
		t.Errorf("tablet count %v exceeds O(log T)", byLabel["stable tablet count"])
	}
	if byLabel["avg rewrites per row"] > 2*math.Log2(total)+2 {
		t.Errorf("rewrites/row %v exceeds O(log T)", byLabel["avg rewrites per row"])
	}
}

func TestAblationShapes(t *testing.T) {
	res, err := RunAblations(AblationConfig{
		Days:       21,
		RowsPerDay: 1000,
		Dir:        t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	merge := res.Series[0].Points
	withPeriods, baseline := merge[0].Y, merge[1].Y
	if baseline < 1.5*withPeriods {
		t.Errorf("period ablation: baseline ratio %.1f not clearly worse than %.1f", baseline, withPeriods)
	}
	bloom := res.Series[1].Points
	withBloom, noBloom := bloom[0].Y, bloom[2].Y
	if noBloom == 0 {
		t.Fatal("bloom ablation exercised no probes")
	}
	// §3.4.5: filters should eliminate the vast majority of probes.
	if withBloom > noBloom/4 {
		t.Errorf("bloom filters only cut probes from %.0f to %.0f", noBloom, withBloom)
	}
}

func TestEncodeShape(t *testing.T) {
	res, err := RunEncode(EncodeConfig{Rows: 4000, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	bytesPerRow := map[string]float64{}
	for _, p := range res.Series[0].Points {
		bytesPerRow[p.Label] = p.Y
	}
	// The tentpole claim: dense numeric data shrinks at least 3x under
	// per-column codecs versus the legacy LZF-only layout.
	if r := bytesPerRow["dense-numeric/legacy"] / bytesPerRow["dense-numeric/auto"]; r < 3 {
		t.Errorf("dense-numeric reduction = %.2fx, want >= 3x", r)
	}
	// The chooser emits whichever image is smaller, so auto must never
	// lose to legacy on any dataset.
	for _, ds := range []string{"dense-numeric", "sparse-string", "mixed"} {
		if bytesPerRow[ds+"/auto"] > bytesPerRow[ds+"/legacy"] {
			t.Errorf("%s: auto %.2f B/row exceeds legacy %.2f", ds,
				bytesPerRow[ds+"/auto"], bytesPerRow[ds+"/legacy"])
		}
	}
}
