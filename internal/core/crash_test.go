package core

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"littletable/internal/clock"
	"littletable/internal/schema"
	"littletable/internal/vfs"
)

// Crash-consistency harness: run a workload on a MemFS with SyncWrites on,
// take a CrashClone — the state an ext4-like disk could present after a
// power cut — at EVERY durability barrier (file fsync, rename, directory
// fsync), then reopen each snapshot and verify the recovered table is an
// exact prefix of insertion order (§3.1's guarantee). A snapshot taken at
// barrier k also stands in for every instant between barriers k and k+1:
// whatever happens in between is un-synced and is dropped by CrashClone's
// semantics anyway.

func quietLogf(string, ...interface{}) {}

// crashWorkload drives inserts/flushes/merges against tt and returns the
// number of rows inserted. Row seq values must count up from 0 in insertion
// order.
type crashWorkload struct {
	name string
	opts Options // Clock, FS, SyncWrites, Logf filled by the harness
	// run returns rows inserted and whether they were all flushed (so the
	// final snapshot must recover every one of them).
	run func(t *testing.T, tab *Table, clk *clock.Fake) (rows int, allFlushed bool)
	// wrapFS, when set, wraps the MemFS the table runs on (e.g. in a
	// LatencyFS so concurrent maintenance workers genuinely overlap);
	// barriers and crash clones still come from the underlying MemFS.
	wrapFS func(mem *vfs.MemFS) vfs.FS
	// onBarrier, when set, runs inside every barrier hook before the
	// crash clone is taken; workloads use it to observe in-flight state
	// at the exact instants the harness kills the process.
	onBarrier func()
	// setup, when set, runs before the first crash image is taken, so
	// every image holds the rows it inserted and flushed.
	setup func(t *testing.T, tab *Table, clk *clock.Fake)
	// check, when set, replaces the insertion-order-prefix checks on each
	// reopened image; final marks the image taken after run returned.
	// The prefix property does not hold once rows are deleted.
	check func(t *testing.T, label string, re *Table, rows []schema.Row, final bool)
}

// crashSeed returns the workload perturbation seed, set by the CI crash
// matrix via LTCRASH_SEED (default 1). Workloads jitter batch sizes and
// row counts with it, so distinct seeds explore different barrier
// sequences and flush-group shapes.
func crashSeed() int64 {
	if v := os.Getenv("LTCRASH_SEED"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			return n
		}
	}
	return 1
}

func runCrashHarness(t *testing.T, w crashWorkload) {
	t.Helper()
	mem := vfs.NewMem()
	clk := clock.NewFake(testStart)
	opts := w.opts
	opts.Clock = clk
	opts.FS = mem
	if w.wrapFS != nil {
		opts.FS = w.wrapFS(mem)
	}
	opts.SyncWrites = true
	opts.Logf = quietLogf

	tab, err := CreateTable("/db", "usage", usageSchema(), 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()

	if w.setup != nil {
		w.setup(t, tab, clk)
	}

	// Snapshot only after the table exists: before the first descriptor
	// commit there is no table to recover. With asynchronous flush workers
	// the hook fires from worker goroutines too, so the slice is locked.
	type snap struct {
		fs       *vfs.MemFS
		op, path string
	}
	var snapMu sync.Mutex
	var snaps []snap
	mem.SetBarrierHook(func(op, path string) {
		if w.onBarrier != nil {
			w.onBarrier()
		}
		c := mem.CrashClone()
		snapMu.Lock()
		snaps = append(snaps, snap{fs: c, op: op, path: path})
		snapMu.Unlock()
	})

	// On failure, dump the fault script — the exact barrier sequence this
	// run crash-cloned at, with the workload name and seed — so the CI
	// crash-matrix job can upload it as an artifact for reproduction.
	t.Cleanup(func() {
		dir := os.Getenv("LTCRASH_ARTIFACT")
		if !t.Failed() || dir == "" {
			return
		}
		var b strings.Builder
		snapMu.Lock()
		fmt.Fprintf(&b, "workload %s seed %d barriers %d\n", w.name, crashSeed(), len(snaps))
		for i, s := range snaps {
			fmt.Fprintf(&b, "%4d %-8s %s\n", i, s.op, s.path)
		}
		snapMu.Unlock()
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Logf("fault-script artifact dir: %v", err)
			return
		}
		name := strings.ReplaceAll(t.Name(), "/", "_") + ".faults.txt"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(b.String()), 0o644); err != nil {
			t.Logf("fault-script artifact write: %v", err)
		}
	})

	inserted, allFlushed := w.run(t, tab, clk)
	mem.SetBarrierHook(nil)
	// A background flush that read the hook before it was cleared may
	// still be running it, so take the lock for the final snapshot and
	// check a copy of the slice header: a late append cannot touch it.
	snapMu.Lock()
	snaps = append(snaps, snap{fs: mem.CrashClone(), op: "final", path: ""})
	all := snaps
	snapMu.Unlock()

	if len(all) < 5 {
		t.Fatalf("workload produced only %d durability barriers; not exercising the harness", len(all))
	}

	for i, s := range all {
		label := fmt.Sprintf("crash %d/%d after %s %s", i+1, len(all), s.op, s.path)
		re, err := OpenTable("/db", "usage", Options{
			Clock:      clock.NewFake(clk.Now()),
			FS:         s.fs,
			SyncWrites: true,
			Logf:       quietLogf,
		})
		if err != nil {
			t.Fatalf("%s: reopen failed: %v", label, err)
		}
		rows, err := re.QueryAll(NewQuery())
		if err != nil {
			re.Close()
			t.Fatalf("%s: query failed: %v", label, err)
		}
		if q := re.Stats().TabletsQuarantined.Load(); q != 0 {
			re.Close()
			t.Fatalf("%s: %d tablets quarantined; a pure power cut must never corrupt a synced tablet", label, q)
		}
		if w.check != nil {
			w.check(t, label, re, rows, i == len(all)-1)
			re.Close()
			continue
		}
		if !isPrefixSet(seqsOf(rows)) {
			re.Close()
			t.Fatalf("%s: recovered %d rows, not an insertion-order prefix: %v",
				label, len(rows), seqsOf(rows))
		}
		if len(rows) > inserted {
			re.Close()
			t.Fatalf("%s: recovered %d rows, more than the %d inserted", label, len(rows), inserted)
		}
		if i == len(all)-1 && allFlushed && len(rows) != inserted {
			re.Close()
			t.Fatalf("final crash state recovered %d rows, want all %d (workload flushed everything)", len(rows), inserted)
		}
		re.Close()
	}
}

// TestCrashAtEveryBarrierSingleTablet: one filling tablet, flushed in one
// group — the simplest commit sequence (tablet write+rename, descriptor
// write+rename).
func TestCrashAtEveryBarrierSingleTablet(t *testing.T) {
	runCrashHarness(t, crashWorkload{
		name: "single",
		run: func(t *testing.T, tab *Table, clk *clock.Fake) (int, bool) {
			now := clk.Now()
			rows := 40 + rand.New(rand.NewSource(crashSeed())).Int63n(24)
			n := 0
			for i := int64(0); i < rows; i++ {
				if err := tab.Insert([]schema.Row{usageRow(1, i, now+i, 0, int64(n))}); err != nil {
					t.Fatal(err)
				}
				n++
			}
			if err := tab.FlushAll(); err != nil {
				t.Fatal(err)
			}
			return n, true
		},
	})
}

// TestCrashAtEveryBarrierMultiPeriod: inserts alternate between time
// periods, creating several filling tablets and flush-dependency edges
// (§3.4.3); groups flush one step at a time with more inserts between
// steps, so crashes land between dependent descriptor commits.
func TestCrashAtEveryBarrierMultiPeriod(t *testing.T) {
	runCrashHarness(t, crashWorkload{
		name: "multi-period",
		run: func(t *testing.T, tab *Table, clk *clock.Fake) (int, bool) {
			now := clk.Now()
			rng := rand.New(rand.NewSource(crashSeed()))
			first, second := 30+rng.Intn(12), 20+rng.Intn(12)
			tsFor := []int64{now, now - 30*clock.Hour, now - 20*clock.Day}
			n := 0
			insert := func(k int) {
				t.Helper()
				ts := tsFor[k%len(tsFor)] + int64(n)
				if err := tab.Insert([]schema.Row{usageRow(1, int64(k), ts, 0, int64(n))}); err != nil {
					t.Fatal(err)
				}
				n++
			}
			for i := 0; i < first; i++ {
				insert(i)
			}
			if err := tab.FlushAll(); err != nil {
				t.Fatal(err)
			}
			for i := first; i < first+second; i++ {
				insert(i)
			}
			// Leave the last batch unflushed: crashes here must still
			// recover exactly the flushed prefix.
			return n, false
		},
	})
}

// TestCrashAtEveryBarrierAsyncPipeline is the dependency-graph kill test
// for the concurrent flush pipeline: inserts alternate between time
// periods (building flush-dependency edges), tablets seal at a tiny
// FlushSize while TWO background workers write groups concurrently, and
// the harness snapshots a crash image at every durability barrier those
// workers cross — i.e. it kills the process mid-pipeline, between
// concurrent tablet writes and in-order descriptor commits. Every
// recovered image must still be an exact prefix of insertion order: the
// in-order commit stage is the thing under test.
func TestCrashAtEveryBarrierAsyncPipeline(t *testing.T) {
	runCrashHarness(t, crashWorkload{
		name: "async-pipeline",
		opts: Options{FlushWorkers: 2, FlushSize: 1 << 10},
		run: func(t *testing.T, tab *Table, clk *clock.Fake) (int, bool) {
			now := clk.Now()
			rng := rand.New(rand.NewSource(crashSeed()))
			batches, per := 10+rng.Intn(5), 16+rng.Intn(9)
			tsFor := []int64{now, now - 30*clock.Hour, now - 20*clock.Day}
			n := 0
			for batch := 0; batch < batches; batch++ {
				rows := make([]schema.Row, 0, per)
				for i := 0; i < per; i++ {
					ts := tsFor[n%len(tsFor)] + int64(n)
					rows = append(rows, usageRow(1, int64(n%7), ts, 0, int64(n)))
					n++
				}
				if err := tab.Insert(rows); err != nil {
					t.Fatal(err)
				}
			}
			// Drain so the final image must hold every row; the interesting
			// crash points were already snapped while workers raced.
			if err := tab.FlushAll(); err != nil {
				t.Fatal(err)
			}
			return n, true
		},
	})
}

// TestCrashAtEveryBarrierDuringMerge: two flushed batches in the same
// period, then a merge — crashes land between the merge output's rename and
// the descriptor update that publishes it, the window where an orphan
// output and live inputs coexist.
func TestCrashAtEveryBarrierDuringMerge(t *testing.T) {
	runCrashHarness(t, crashWorkload{
		name: "merge",
		opts: Options{MergeDelay: 1},
		run: func(t *testing.T, tab *Table, clk *clock.Fake) (int, bool) {
			now := clk.Now()
			n := 0
			batch := func() {
				t.Helper()
				for i := 0; i < 30; i++ {
					if err := tab.Insert([]schema.Row{usageRow(1, int64(n), now-clock.Hour+int64(n), 0, int64(n))}); err != nil {
						t.Fatal(err)
					}
					n++
				}
				if err := tab.FlushAll(); err != nil {
					t.Fatal(err)
				}
			}
			batch()
			batch()
			clk.Advance(2 * clock.Second)
			if _, err := tab.MergeUntilStable(); err != nil {
				t.Fatal(err)
			}
			return n, true
		},
	})
}

// TestCrashAtEveryBarrierParallelMaintenance is the kill test for the
// concurrent maintenance scheduler: six merge-eligible periods, TWO
// background workers, and a LatencyFS stretching every merge write so the
// workers genuinely overlap. The harness snapshots a crash image at every
// barrier those merges cross — including the windows where two merge
// outputs exist but neither descriptor commit has published them — and the
// barrier hook actively waits until it has observed >= 2 merges in flight,
// so at least some crash images are taken mid-parallel-merge. Every image
// must recover all rows (they were flushed before maintenance started):
// merges rewrite durable data and must never lose it, no matter how many
// run at once or where the power cut lands.
func TestCrashAtEveryBarrierParallelMaintenance(t *testing.T) {
	var tabPtr atomic.Pointer[Table]
	var maintaining atomic.Bool
	var maxInFlight atomic.Int64
	runCrashHarness(t, crashWorkload{
		name: "parallel-maintenance",
		opts: Options{MergeWorkers: 2, MergeDelay: 1},
		wrapFS: func(mem *vfs.MemFS) vfs.FS {
			return vfs.LatencyFS{FS: mem, WriteDelay: 2 * time.Millisecond}
		},
		onBarrier: func() {
			tab := tabPtr.Load()
			if tab == nil || !maintaining.Load() {
				return
			}
			// Hold this barrier open briefly until a second merge starts, so
			// crash clones land while >= 2 merges are mid-write. Descriptor
			// barriers fire under t.mu — no new merge can claim while one is
			// held — so the wait must be bounded, not unconditional; the
			// overlap is actually observed at merge-output barriers, which
			// fire without the lock. MergesInFlightNow is lock-free, so
			// polling here cannot deadlock either barrier flavor.
			deadline := time.Now().Add(250 * time.Millisecond)
			for {
				if n := tab.MergesInFlightNow(); n > maxInFlight.Load() {
					maxInFlight.Store(n)
				}
				if maxInFlight.Load() >= 2 || time.Now().After(deadline) {
					return
				}
				time.Sleep(100 * time.Microsecond)
			}
		},
		run: func(t *testing.T, tab *Table, clk *clock.Fake) (int, bool) {
			tabPtr.Store(tab)
			now := clk.Now()
			n := 0
			const periods, tablets, rowsPer = 6, 3, 12
			for p := 0; p < periods; p++ {
				// Weeks-old bases: each p lands in its own coarse period whose
				// rollover (and pseudorandom post-rollover delay) is long past,
				// so every period is merge-eligible the moment MergeDelay is.
				base := now - int64(4+p)*7*clock.Day
				for b := 0; b < tablets; b++ {
					for i := 0; i < rowsPer; i++ {
						row := usageRow(1, int64(p*100+b*20+i), base+int64(b*rowsPer+i), 0, int64(n))
						if err := tab.Insert([]schema.Row{row}); err != nil {
							t.Fatal(err)
						}
						n++
					}
					if err := tab.FlushAll(); err != nil {
						t.Fatal(err)
					}
				}
			}
			clk.Advance(2 * clock.Second)
			maintaining.Store(true)
			if err := tab.MaintainUntilQuiet(); err != nil {
				t.Fatal(err)
			}
			maintaining.Store(false)
			return n, true
		},
	})
	if got := maxInFlight.Load(); got < 2 {
		t.Fatalf("never observed >= 2 merges in flight at a durability barrier (max %d); harness is not killing mid-parallel-maintenance", got)
	}
}

// rewriteWorkload inserts rows for six devices across three coarse
// periods, two flushed tablets per period, in setup, so every crash image
// starts from the same durable rows; run then rewrites or relocates those
// tablets. It returns the workload with its inserted rows by seq.
func rewriteWorkload(name string) (crashWorkload, map[int64]schema.Row) {
	inserted := make(map[int64]schema.Row)
	return crashWorkload{
		name: name,
		setup: func(t *testing.T, tab *Table, clk *clock.Fake) {
			now := clk.Now()
			rng := rand.New(rand.NewSource(crashSeed()))
			n := int64(0)
			for p := int64(0); p < 3; p++ {
				base := now - (4+p)*7*clock.Day
				for b := int64(0); b < 2; b++ {
					per := 8 + rng.Int63n(8)
					for i := int64(0); i < per; i++ {
						row := usageRow(1, n%6, base+b*clock.Hour+i, float64(n), n)
						if err := tab.Insert([]schema.Row{row}); err != nil {
							t.Fatal(err)
						}
						inserted[n] = row
						n++
					}
					if err := tab.FlushAll(); err != nil {
						t.Fatal(err)
					}
				}
			}
		},
	}, inserted
}

// checkRows fails unless every recovered row is one that was inserted,
// unchanged and at most once, and every row gone does not match doomed.
func checkRows(t *testing.T, label string, inserted map[int64]schema.Row, rows []schema.Row, doomed func(schema.Row) bool) {
	t.Helper()
	sc := usageSchema()
	seen := make(map[int64]bool, len(rows))
	for _, r := range rows {
		seq := r[4].Int
		want, ok := inserted[seq]
		if !ok || sc.CompareKeys(r, want) != 0 || r[3].Float != want[3].Float {
			t.Fatalf("%s: recovered row %v was never inserted", label, r)
		}
		if seen[seq] {
			t.Fatalf("%s: row seq %d recovered twice", label, seq)
		}
		seen[seq] = true
	}
	for seq, r := range inserted {
		if !seen[seq] && !doomed(r) {
			t.Fatalf("%s: row seq %d outside the delete box is missing", label, seq)
		}
	}
}

// TestCrashAtEveryBarrierDuringDelete: DeleteWhere rewrites every tablet
// its box and filter touch, one descriptor commit per tablet. Crashes land
// between a rewritten tablet's rename and the commit that swaps it in, so
// an image may hold the old tablet, the new one, or (as an orphan) both.
// Every row outside the box must survive exactly once; in-box rows may or
// may not, and after the delete returns they must all be gone.
func TestCrashAtEveryBarrierDuringDelete(t *testing.T) {
	w, inserted := rewriteWorkload("delete")
	var box Query
	sc := usageSchema()
	doomed := func(r schema.Row) bool { return box.inBox(sc, r) && r[4].Int%2 == 0 }
	w.run = func(t *testing.T, tab *Table, clk *clock.Fake) (int, bool) {
		// Devices 2..3 over the two older periods, even seqs only.
		box = NewQuery()
		box.Lower, box.Upper = key(1, 2), key(1, 3)
		box.MaxTs = clk.Now() - 5*7*clock.Day + clock.Day
		want := int64(0)
		for _, r := range inserted {
			if doomed(r) {
				want++
			}
		}
		n, err := tab.DeleteWhere(box, func(r schema.Row) bool { return r[4].Int%2 == 0 })
		if err != nil {
			t.Fatal(err)
		}
		if n != want || n == 0 {
			t.Fatalf("DeleteWhere removed %d rows, want %d (> 0)", n, want)
		}
		return len(inserted), true
	}
	w.check = func(t *testing.T, label string, _ *Table, rows []schema.Row, final bool) {
		checkRows(t, label, inserted, rows, doomed)
		if final {
			for _, r := range rows {
				if doomed(r) {
					t.Fatalf("%s: deleted row seq %d survived the delete", label, r[4].Int)
				}
			}
		}
	}
	runCrashHarness(t, w)
}

// TestCrashAtEveryBarrierDuringTiering: TierColdTablets copies each old
// tablet to the cold directory (temp file, fsync, rename, directory
// fsync) and then commits a descriptor naming the cold copy. Crashes land
// at each of those barriers; every image must hold every row exactly
// once, and the last must read the moved tablets from cold storage.
func TestCrashAtEveryBarrierDuringTiering(t *testing.T) {
	w, inserted := rewriteWorkload("tiering")
	w.run = func(t *testing.T, tab *Table, clk *clock.Fake) (int, bool) {
		// The two older periods go cold; the newest stays hot.
		moved, err := tab.TierColdTablets(clk.Now()-5*7*clock.Day+clock.Day, "/cold")
		if err != nil {
			t.Fatal(err)
		}
		if moved != 4 {
			t.Fatalf("tiered %d tablets, want 4", moved)
		}
		return len(inserted), true
	}
	w.check = func(t *testing.T, label string, re *Table, rows []schema.Row, final bool) {
		checkRows(t, label, inserted, rows, func(schema.Row) bool { return false })
		if final && re.ColdTabletCount() != 4 {
			t.Fatalf("%s: %d cold tablets, want 4", label, re.ColdTabletCount())
		}
	}
	runCrashHarness(t, w)
}
