package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"littletable/internal/clock"
	"littletable/internal/ltval"
	"littletable/internal/vfs"
)

func TestTierColdTablets(t *testing.T) {
	tt := newTestTable(t, Options{})
	now := tt.clk.Now()
	// Old data (a quarter back) and fresh data.
	for i := int64(0); i < 50; i++ {
		mustInsert(t, tt.Table, usageRow(1, i, now-90*clock.Day+i, 0, i))
	}
	for i := int64(0); i < 50; i++ {
		mustInsert(t, tt.Table, usageRow(2, i, now-i*clock.Second, 0, 100+i))
	}
	if err := tt.FlushAll(); err != nil {
		t.Fatal(err)
	}
	coldDir := filepath.Join(t.TempDir(), "cold")
	moved, err := tt.TierColdTablets(now-30*clock.Day, coldDir)
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("no tablets tiered")
	}
	if tt.ColdTabletCount() != moved {
		t.Fatalf("ColdTabletCount = %d, moved %d", tt.ColdTabletCount(), moved)
	}
	// Cold files exist; their hot twins are gone.
	ents, err := os.ReadDir(coldDir)
	if err != nil || len(ents) != moved {
		t.Fatalf("cold dir: %d files, %v", len(ents), err)
	}
	for _, e := range ents {
		hot, ok := strings.CutPrefix(e.Name(), "usage-")
		if !ok {
			t.Fatalf("cold file %s is not named for its table", e.Name())
		}
		if _, err := os.Stat(filepath.Join(tt.dir, "usage", hot)); !os.IsNotExist(err) {
			t.Fatalf("hot copy of %s survives", e.Name())
		}
	}
	// Queries read cold data transparently.
	rows := queryBox(t, tt.Table, NewQuery())
	if len(rows) != 100 {
		t.Fatalf("query across tiers: %d rows", len(rows))
	}
	// Idempotent: nothing left to move.
	again, err := tt.TierColdTablets(now-30*clock.Day, coldDir)
	if err != nil || again != 0 {
		t.Fatalf("second tiering moved %d, %v", again, err)
	}
}

func TestTierSurvivesReopen(t *testing.T) {
	tt := newTestTable(t, Options{})
	now := tt.clk.Now()
	for i := int64(0); i < 30; i++ {
		mustInsert(t, tt.Table, usageRow(1, i, now-90*clock.Day+i, 0, i))
	}
	if err := tt.FlushAll(); err != nil {
		t.Fatal(err)
	}
	coldDir := filepath.Join(t.TempDir(), "cold")
	if _, err := tt.TierColdTablets(now-clock.Day, coldDir); err != nil {
		t.Fatal(err)
	}
	tt2 := reopen(t, tt)
	if tt2.ColdTabletCount() == 0 {
		t.Fatal("cold location lost across reopen")
	}
	rows := queryBox(t, tt2.Table, NewQuery())
	if len(rows) != 30 {
		t.Fatalf("rows after reopen: %d", len(rows))
	}
}

func TestTierFreshDataStaysHot(t *testing.T) {
	tt := newTestTable(t, Options{})
	now := tt.clk.Now()
	for i := int64(0); i < 20; i++ {
		mustInsert(t, tt.Table, usageRow(1, i, now-i, 0, i))
	}
	if err := tt.FlushAll(); err != nil {
		t.Fatal(err)
	}
	moved, err := tt.TierColdTablets(now-clock.Day, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if moved != 0 || tt.ColdTabletCount() != 0 {
		t.Fatalf("fresh tablets tiered: %d", moved)
	}
}

func TestTieredTabletExpiresByTTL(t *testing.T) {
	tt := newTestTable(t, Options{})
	now := tt.clk.Now()
	for i := int64(0); i < 20; i++ {
		mustInsert(t, tt.Table, usageRow(1, i, now-100*clock.Day+i, 0, i))
	}
	if err := tt.FlushAll(); err != nil {
		t.Fatal(err)
	}
	coldDir := filepath.Join(t.TempDir(), "cold")
	if _, err := tt.TierColdTablets(now-clock.Day, coldDir); err != nil {
		t.Fatal(err)
	}
	if err := tt.AlterTTL(50 * clock.Day); err != nil {
		t.Fatal(err)
	}
	if err := tt.ExpireNow(); err != nil {
		t.Fatal(err)
	}
	if tt.DiskTabletCount() != 0 {
		t.Fatal("expired cold tablet not reclaimed")
	}
	ents, _ := os.ReadDir(coldDir)
	if len(ents) != 0 {
		t.Fatalf("cold file not deleted on expiry: %d remain", len(ents))
	}
}

func TestTieredTabletQueriedWithConcurrentReader(t *testing.T) {
	tt := newTestTable(t, Options{})
	now := tt.clk.Now()
	for i := int64(0); i < 40; i++ {
		mustInsert(t, tt.Table, usageRow(1, i, now-90*clock.Day+i, 0, i))
	}
	if err := tt.FlushAll(); err != nil {
		t.Fatal(err)
	}
	it, err := tt.Query(NewQuery())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tt.TierColdTablets(now-clock.Day, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	n := 0
	for it.Next() {
		n++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	it.Close()
	if n != 40 {
		t.Fatalf("snapshot under tiering saw %d rows", n)
	}
}

// TestTablesShareColdDir tiers two tables of one root into one cold
// directory. Both name their first tablet by the same sequence number, so
// the cold copies must not collide: after reopening, each table reads back
// its own rows.
func TestTablesShareColdDir(t *testing.T) {
	mem := vfs.NewMem()
	clk := clock.NewFake(testStart)
	opts := Options{Clock: clk, FS: mem, Logf: quietLogf}
	for i, name := range []string{"a", "b"} {
		tab, err := CreateTable("/db", name, usageSchema(), 0, opts)
		if err != nil {
			t.Fatal(err)
		}
		insertFlush(t, tab, int64(100*i), 10, clk.Now()-90*clock.Day)
		if moved, err := tab.TierColdTablets(clk.Now()-30*clock.Day, "/cold"); err != nil || moved != 1 {
			t.Fatalf("table %s tiered %d tablets: %v", name, moved, err)
		}
		tab.Close()
	}
	for i, name := range []string{"a", "b"} {
		tab, err := OpenTable("/db", name, opts)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := tab.QueryAll(NewQuery())
		tab.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 10 || !rows[0][1].Equal(ltval.NewInt64(int64(100*i))) {
			t.Errorf("table %s reads %d rows starting at device %v, want 10 of its own from %d", name, len(rows), rows[0][1], 100*i)
		}
	}
}

// TestFailedTieringLeavesNoColdOrphan fails the descriptor write that
// would name a second cold copy, then closes the table. The durable
// descriptor records the cold directory from the first tiering, so the
// reopen removes the copy no descriptor names.
func TestFailedTieringLeavesNoColdOrphan(t *testing.T) {
	mem := vfs.NewMem()
	ffs := vfs.NewFault(mem)
	clk := clock.NewFake(testStart)
	tab, err := CreateTable("/db", "usage", usageSchema(), 0, Options{Clock: clk, FS: ffs, Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	insertFlush(t, tab, 0, 10, clk.Now()-90*clock.Day)
	if _, err := tab.TierColdTablets(clk.Now()-30*clock.Day, "/cold"); err != nil {
		t.Fatal(err)
	}
	insertFlush(t, tab, 10, 10, clk.Now()-60*clock.Day)
	ffs.Inject(&vfs.Fault{Op: vfs.OpRename, Path: descriptorFile})
	if _, err := tab.TierColdTablets(clk.Now()-30*clock.Day, "/cold"); err == nil {
		t.Fatal("the failed descriptor write was not reported")
	}
	tab.Close()

	re, err := OpenTable("/db", "usage", Options{Clock: clk, FS: mem, Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	checkNoOrphans(t, mem, "/db/usage", "/cold")
	if got := shapeOf(t, re); got != (durableShape{20, 2, 1}) {
		t.Errorf("after reopen: %+v, want 20 rows in 2 tablets, 1 cold", got)
	}
}
