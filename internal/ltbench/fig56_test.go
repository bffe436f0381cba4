package ltbench

import (
	"os"
	"testing"
)

func TestFig5Shape(t *testing.T) {
	// Tablets must stay larger than the readahead window for the figure's
	// regime (the paper's are 16 MB); 32 MB over ≤16 tablets keeps ≥2 MB.
	dir := t.TempDir()
	res, err := RunFig5(Fig5Config{
		TotalBytes:   32 << 20,
		TabletCounts: []int{1, 4, 16},
		Dir:          dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertScratchRemoved(t, dir)
	small := res.Series[0].Points
	large := res.Series[1].Points
	// Monotone decline with tablet count.
	for i := 1; i < len(small); i++ {
		if small[i].Y > small[i-1].Y*1.05 {
			t.Errorf("128kB throughput rose with more tablets: %v", small)
		}
	}
	// Single tablet near peak (≥80 MB/s of the 120 peak).
	if small[0].Y < 80 {
		t.Errorf("single-tablet throughput %.1f MB/s too low", small[0].Y)
	}
	// Many tablets: far below peak, and 1MB readahead ≥1.5x the 128kB one.
	lastS, lastL := small[len(small)-1].Y, large[len(large)-1].Y
	if lastS > 60 {
		t.Errorf("16-tablet 128kB throughput %.1f MB/s did not level off", lastS)
	}
	if lastL < 1.4*lastS {
		t.Errorf("readahead gain %.2fx below Figure 5's ~1.7x", lastL/lastS)
	}
}

func TestFig6Shape(t *testing.T) {
	dir := t.TempDir()
	res, err := RunFig6(Fig6Config{
		TabletCounts: []int{1, 4, 8, 16},
		TabletBytes:  1 << 20,
		Dir:          dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertScratchRemoved(t, dir)
	first := res.Series[0].Points
	second := res.Series[1].Points
	// Latency grows with tablet count; first query costlier than second.
	for i := range first {
		if first[i].Y <= second[i].Y {
			t.Errorf("first query (%f ms) not above second (%f ms) at %v tablets",
				first[i].Y, second[i].Y, first[i].X)
		}
	}
	s1 := slopeMsPerTablet(first)
	s2 := slopeMsPerTablet(second)
	// Paper slopes: 30.3 and 8.3 ms/tablet (4 seeks vs 1). The model folds
	// the inode read into the first seek, so expect ~24 and ~8; accept
	// generous bands around the seek economics.
	if s1 < 16 || s1 > 40 {
		t.Errorf("first-query slope %.1f ms/tablet, want ≈24-32 (4ish seeks)", s1)
	}
	if s2 < 6 || s2 > 14 {
		t.Errorf("second-query slope %.1f ms/tablet, want ≈8 (1 seek)", s2)
	}
	if ratio := s1 / s2; ratio < 2 || ratio > 5 {
		t.Errorf("slope ratio %.1f, want ≈3-4", ratio)
	}
}

// assertScratchRemoved fails the test if a figure left anything in dir:
// each tablet count's table must be removed once measured, so peak disk
// use is one count's table.
func assertScratchRemoved(t *testing.T, dir string) {
	t.Helper()
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("scratch entry %s left behind in %s", e.Name(), dir)
	}
}
