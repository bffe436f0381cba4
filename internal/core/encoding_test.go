package core

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"littletable/internal/clock"
	"littletable/internal/ltval"
	"littletable/internal/schema"
	"littletable/internal/tablet"
)

// v1Fixture is the committed pre-columnar tablet (row-major blocks,
// version-1 footer) that the tablet package's golden tests pin.
var v1Fixture = filepath.Join("..", "tablet", "testdata", "v1_compressed.tab")

// fixtureBox draws a random 2-D query box over the fixture's key space:
// network 0..2, device 0..9 (an int32), timestamps within 20 minutes.
func fixtureBox(rng *rand.Rand) Query {
	q := NewQuery()
	a, b := rng.Int63n(4), rng.Int63n(4)
	if a > b {
		a, b = b, a
	}
	if rng.Intn(3) > 0 {
		q.Lower = []ltval.Value{ltval.NewInt64(a)}
		if rng.Intn(2) == 0 {
			q.Lower = append(q.Lower, ltval.NewInt32(int32(rng.Intn(10))))
		}
		q.LowerInc = rng.Intn(4) > 0
	}
	if rng.Intn(3) > 0 {
		q.Upper = []ltval.Value{ltval.NewInt64(b)}
		q.UpperInc = rng.Intn(4) > 0
	}
	if rng.Intn(2) == 0 {
		q.MinTs = rng.Int63n(20) * clock.Minute
		q.MaxTs = q.MinTs + rng.Int63n(10)*clock.Minute
	}
	q.Descending = rng.Intn(3) == 0
	return q
}

// TestEncodingDifferentialAutoVsLegacy is the columnar encoder's
// correctness proof at the engine level, against the pre-columnar format
// the writer no longer emits: a table serving the committed v1 fixture
// and a table holding the same rows inserted, flushed and merged by
// today's writer must serve identical rows for full scans and random
// bounding boxes, at every query parallelism, and again after reopening.
func TestEncodingDifferentialAutoVsLegacy(t *testing.T) {
	raw, err := os.ReadFile(v1Fixture)
	if err != nil {
		t.Fatal(err)
	}
	fix, err := tablet.Open(v1Fixture)
	if err != nil {
		t.Fatal(err)
	}
	sc := fix.Schema()
	var rows []schema.Row
	for c := fix.Cursor(true); c.Next(); {
		rows = append(rows, schema.CloneRow(c.Row()))
	}
	minTs, maxTs := fix.Timespan()
	fix.Close()

	for _, par := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			clk := clock.NewFake(testStart)
			opts := Options{
				Clock:            clk,
				FlushSize:        2048,
				MergeDelay:       1 * clock.Second,
				MergeWorkers:     2,
				QueryParallelism: par,
			}
			create := func() (*Table, string) {
				dir := t.TempDir()
				tab, err := CreateTable(dir, "golden", sc, 0, opts)
				if err != nil {
					t.Fatal(err)
				}
				return tab, dir
			}
			legacy, legacyDir := create()
			defer func() { legacy.Close() }()
			if err := legacy.InstallTablet(raw, int64(len(rows)), minTs, maxTs); err != nil {
				t.Fatal(err)
			}
			auto, autoDir := create()
			defer func() { auto.Close() }()
			for i := 0; i < len(rows); i += 200 {
				mustInsert(t, auto, rows[i:min(i+200, len(rows))]...)
				if err := auto.FlushAll(); err != nil {
					t.Fatal(err)
				}
			}
			clk.Advance(2 * clock.Day)
			if err := auto.MaintainUntilQuiet(); err != nil {
				t.Fatal(err)
			}
			// The comparison is only meaningful if the auto table used the
			// columnar layout and merged, and the legacy table encoded
			// nothing of its own.
			if s := auto.Stats().Snapshot(); s.BlocksEncodedColumnar == 0 || s.Merges == 0 {
				t.Fatalf("auto table encoded %d columnar blocks in %d merges; differential is vacuous", s.BlocksEncodedColumnar, s.Merges)
			}
			if s := legacy.Stats().Snapshot(); s.BlocksEncodedColumnar != 0 {
				t.Fatalf("legacy table encoded %d columnar blocks", s.BlocksEncodedColumnar)
			}

			compare := func(q Query, label string) {
				t.Helper()
				got := queryBox(t, auto, q)
				want := queryBox(t, legacy, q)
				if len(got) != len(want) {
					t.Fatalf("%s: auto returned %d rows, legacy %d", label, len(got), len(want))
				}
				for i := range want {
					for j := range want[i] {
						if !got[i][j].Equal(want[i][j]) {
							t.Fatalf("%s: row %d col %d: auto %v, legacy %v",
								label, i, j, got[i][j], want[i][j])
						}
					}
				}
			}
			if got := queryBox(t, legacy, NewQuery()); len(got) != len(rows) {
				t.Fatalf("legacy table serves %d rows, want the fixture's %d", len(got), len(rows))
			}
			compare(NewQuery(), "full scan")
			rng := rand.New(rand.NewSource(int64(100 + par)))
			for trial := 0; trial < 25; trial++ {
				compare(fixtureBox(rng), fmt.Sprintf("box %d", trial))
			}

			// Reopen both: the on-disk images alone must still agree.
			reopen := func(tab *Table, dir string) *Table {
				t.Helper()
				if err := tab.Close(); err != nil {
					t.Fatal(err)
				}
				re, err := OpenTable(dir, "golden", opts)
				if err != nil {
					t.Fatal(err)
				}
				return re
			}
			legacy, auto = reopen(legacy, legacyDir), reopen(auto, autoDir)
			compare(NewQuery(), "reopen")
		})
	}
}

// TestCorruptFixtureQuarantined feeds the checked-in damaged v1 fixture
// through the open-time verification path: a tablet file whose block bytes
// fail their checksum must be quarantined, not served.
func TestCorruptFixtureQuarantined(t *testing.T) {
	tt := newTestTable(t, Options{VerifyOnOpen: true, Logf: quietLogf})
	now := tt.clk.Now()
	for i := int64(0); i < 10; i++ {
		mustInsert(t, tt.Table, usageRow(1, i, now, 0, i))
	}
	if err := tt.FlushAll(); err != nil {
		t.Fatal(err)
	}
	tableDir := filepath.Join(tt.dir, "usage")
	tabs := tabletFiles(t, tableDir)
	if len(tabs) != 1 {
		t.Fatalf("expected 1 tablet, found %d", len(tabs))
	}
	fixture, err := os.ReadFile(filepath.Join("..", "tablet", "testdata", "v1_corrupt.tab"))
	if err != nil {
		t.Fatalf("golden corrupt fixture missing: %v", err)
	}
	if err := os.WriteFile(tabs[0], fixture, 0o644); err != nil {
		t.Fatal(err)
	}

	tt2 := reopen(t, tt)
	if got := tt2.Stats().TabletsQuarantined.Load(); got != 1 {
		t.Errorf("TabletsQuarantined = %d, want 1", got)
	}
	if n := tt2.DiskTabletCount(); n != 0 {
		t.Errorf("DiskTabletCount = %d, want 0", n)
	}
	if _, err := os.Stat(tabs[0] + quarantineSuffix); err != nil {
		t.Errorf("quarantine file missing: %v", err)
	}
}
