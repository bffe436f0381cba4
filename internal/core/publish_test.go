package core

import (
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"littletable/internal/clock"
	"littletable/internal/schema"
	"littletable/internal/vfs"
)

// durableShape is what a reopened table shows: visible rows, on-disk
// tablets and how many of those live in the cold directory.
type durableShape struct{ rows, tablets, cold int }

func shapeOf(t *testing.T, tab *Table) durableShape {
	t.Helper()
	rows, err := tab.QueryAll(NewQuery())
	if err != nil {
		t.Fatal(err)
	}
	return durableShape{len(rows), tab.DiskTabletCount(), tab.ColdTabletCount()}
}

// insertFlush inserts n rows for device base+i at ts+i and flushes them
// into one tablet.
func insertFlush(t *testing.T, tab *Table, base, n, ts int64) {
	t.Helper()
	for i := int64(0); i < n; i++ {
		mustInsert(t, tab, usageRow(1, base+i, ts+i, 0, base+i))
	}
	if err := tab.FlushAll(); err != nil {
		t.Fatal(err)
	}
}

// checkNoOrphans fails if a tablet file in the table or cold directory is
// not named by the on-disk descriptor, or a named one is missing.
func checkNoOrphans(t *testing.T, fsys vfs.FS, dir, coldDir string) {
	t.Helper()
	d, err := readDescriptor(fsys, dir)
	if err != nil {
		t.Fatal(err)
	}
	var named, found []string
	for _, rec := range d.Tablets {
		named = append(named, filepath.Join(rec.Dir, rec.File))
	}
	for _, dd := range []string{dir, coldDir} {
		ents, err := fsys.ReadDir(dd)
		if err != nil {
			continue // the cold directory exists only once something tiered
		}
		for _, e := range ents {
			if strings.HasSuffix(e.Name(), ".tab") {
				cold := ""
				if dd == coldDir {
					cold = coldDir
				}
				found = append(found, filepath.Join(cold, e.Name()))
			}
		}
	}
	sort.Strings(named)
	sort.Strings(found)
	if strings.Join(named, " ") != strings.Join(found, " ") {
		t.Errorf("descriptor names %v, directories hold %v", named, found)
	}
}

// TestFailedDescriptorWriteKeepsDurableState fails the descriptor rename
// of each change to the tablet set once. The change stays in memory and
// is reported; a replaced file stays on disk while a durable descriptor
// names it. Leg "close": closing right away and reopening shows the last
// durable state, with nothing quarantined. Leg "retry": a Tick past the
// retry backoff makes the change durable and deletes what it replaced.
func TestFailedDescriptorWriteKeepsDurableState(t *testing.T) {
	const coldDir = "/cold"
	cases := []struct {
		name string
		ttl  int64
		// setup builds the durable state the fault starts from.
		setup func(t *testing.T, tab *Table, clk *clock.Fake)
		// change is the operation whose descriptor write fails.
		change        func(tab *Table) error
		before, after durableShape
		// nth is which descriptor rename of change fails (0: the first).
		nth int
	}{
		{
			name: "flush",
			setup: func(t *testing.T, tab *Table, clk *clock.Fake) {
				now := clk.Now()
				insertFlush(t, tab, 0, 100, now-clock.Hour)
				for i := int64(0); i < 100; i++ {
					mustInsert(t, tab, usageRow(1, 100+i, now-clock.Hour+100+i, 0, 100+i))
				}
			},
			change: func(tab *Table) error { return tab.FlushAll() },
			before: durableShape{100, 1, 0},
			after:  durableShape{200, 2, 0},
		},
		{
			name: "merge",
			setup: func(t *testing.T, tab *Table, clk *clock.Fake) {
				now := clk.Now()
				insertFlush(t, tab, 0, 100, now-clock.Hour)
				insertFlush(t, tab, 100, 100, now-clock.Hour+100)
				clk.Advance(2 * clock.Minute) // past the default MergeDelay
			},
			change: func(tab *Table) error { _, err := tab.MergeStep(); return err },
			before: durableShape{200, 2, 0},
			after:  durableShape{200, 1, 0},
		},
		{
			name: "delete-where",
			setup: func(t *testing.T, tab *Table, clk *clock.Fake) {
				for k := int64(0); k < 4; k++ {
					insertFlush(t, tab, k*50, 50, clk.Now()-clock.Hour+k*50)
				}
			},
			change: func(tab *Table) error {
				q := NewQuery()
				q.Lower, q.Upper = key(1, 10), key(1, 16)
				_, err := tab.DeleteWhere(q, nil)
				return err
			},
			before: durableShape{200, 4, 0},
			after:  durableShape{193, 4, 0},
		},
		{
			name: "tiering",
			setup: func(t *testing.T, tab *Table, clk *clock.Fake) {
				now := clk.Now()
				insertFlush(t, tab, 0, 50, now-90*clock.Day)
				insertFlush(t, tab, 50, 150, now-clock.Hour)
			},
			change: func(tab *Table) error {
				_, err := tab.TierColdTablets(tab.Now()-30*clock.Day, coldDir)
				return err
			},
			before: durableShape{200, 2, 0},
			after:  durableShape{200, 2, 1},
			// The first rename records the cold directory before the copy.
			nth: 2,
		},
		{
			name: "ttl-expiry",
			ttl:  7 * clock.Day,
			setup: func(t *testing.T, tab *Table, clk *clock.Fake) {
				insertFlush(t, tab, 0, 50, clk.Now()-clock.Day)
				clk.Advance(3 * clock.Day)
				insertFlush(t, tab, 50, 150, clk.Now()-clock.Hour)
				clk.Advance(5 * clock.Day) // the first tablet is past the TTL
			},
			change: func(tab *Table) error { return tab.ExpireNow() },
			before: durableShape{150, 2, 0},
			after:  durableShape{150, 1, 0},
		},
	}
	for _, tc := range cases {
		for _, retry := range []bool{false, true} {
			leg := "close"
			if retry {
				leg = "retry"
			}
			t.Run(tc.name+"/"+leg, func(t *testing.T) {
				mem := vfs.NewMem()
				ffs := vfs.NewFault(mem)
				clk := clock.NewFake(testStart)
				opts := Options{Clock: clk, FS: ffs, Logf: quietLogf}
				tab, err := CreateTable("/db", "usage", usageSchema(), tc.ttl, opts)
				if err != nil {
					t.Fatal(err)
				}
				defer tab.Close()
				tc.setup(t, tab, clk)

				ffs.Inject(&vfs.Fault{Op: vfs.OpRename, Path: descriptorFile, Nth: tc.nth})
				if err := tc.change(tab); err == nil {
					t.Fatal("the failed descriptor write was not reported")
				}
				if ffs.Injected() != 1 {
					t.Fatalf("%d faults fired, want 1", ffs.Injected())
				}
				if got := shapeOf(t, tab); got != tc.after {
					t.Errorf("in memory after the failed write: %+v, want %+v", got, tc.after)
				}
				want := tc.before
				if retry {
					clk.Advance(retryBackoff(1))
					if err := tab.Tick(); err != nil {
						t.Fatalf("Tick past the retry backoff: %v", err)
					}
					if s := tab.Stats().Snapshot(); s.CommitFailures != 1 {
						t.Errorf("CommitFailures = %d, want 1", s.CommitFailures)
					}
					want = tc.after
				}
				tab.Close()
				if retry {
					checkNoOrphans(t, mem, "/db/usage", coldDir)
				}

				re, err := OpenTable("/db", "usage", Options{Clock: clk, FS: mem, Logf: quietLogf})
				if err != nil {
					t.Fatal(err)
				}
				defer re.Close()
				if q := re.Stats().Snapshot().TabletsQuarantined; q != 0 {
					t.Errorf("%d tablets quarantined at reopen: a file the descriptor names was deleted", q)
				}
				if got := shapeOf(t, re); got != want {
					t.Errorf("after reopen: %+v, want the last durable state %+v", got, want)
				}
				checkNoOrphans(t, mem, "/db/usage", coldDir)
			})
		}
	}
}

// TestInsertErrorAppliedNothing: an Insert that returns an error has
// applied none of its rows, so a client may re-send the batch. A batch
// that seals past the pending-tablet cap drains the backlog, and the
// drain's descriptor write fails once; the rows stay in the table and the
// retry schedule persists them.
func TestInsertErrorAppliedNothing(t *testing.T) {
	ffs := vfs.NewFault(vfs.NewMem())
	clk := clock.NewFake(testStart)
	opts := Options{Clock: clk, FS: ffs, Logf: quietLogf, FlushSize: 2 << 10, MaxPendingTablets: 1}
	tab, err := CreateTable("/db", "usage", usageSchema(), 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	ffs.Inject(&vfs.Fault{Op: vfs.OpRename, Path: descriptorFile})
	rows := make([]schema.Row, 0, 100)
	for i := int64(0); i < 100; i++ {
		rows = append(rows, usageRow(1, i, clk.Now()-clock.Hour+i, 0, i))
	}
	ierr := tab.Insert(rows)
	if ffs.Injected() != 1 {
		t.Fatalf("%d faults fired, want 1", ffs.Injected())
	}
	got, err := tab.QueryAll(NewQuery())
	if err != nil {
		t.Fatal(err)
	}
	if (ierr == nil && len(got) != 100) || (ierr != nil && len(got) != 0) {
		t.Fatalf("Insert returned %v with %d of 100 rows readable; want nil and 100, or an error and 0", ierr, len(got))
	}
}
