package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"littletable/internal/clock"
	"littletable/internal/vfs"
)

// Recovery edge cases: what OpenTable does when the directory holds not the
// clean aftermath of a crash but actively damaged state — truncated or
// garbage descriptors, truncated or bit-flipped tablets, injected I/O
// errors. The contract: a damaged descriptor is a clean open error (never a
// panic, never silent data invention); a damaged tablet is quarantined and
// the table serves what remains.

// tabletFiles lists the *.tab files in a table directory, sorted.
func tabletFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tab") {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(out)
	return out
}

func corruptFile(t *testing.T, path string, mutate func([]byte) []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mutate(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestGarbageDescriptorFailsOpenCleanly(t *testing.T) {
	tt := newTestTable(t, Options{Logf: quietLogf})
	mustInsert(t, tt.Table, usageRow(1, 1, tt.clk.Now(), 0, 0))
	if err := tt.FlushAll(); err != nil {
		t.Fatal(err)
	}
	tt.Close()
	desc := filepath.Join(tt.dir, "usage", descriptorFile)
	if err := os.WriteFile(desc, []byte("{{{ not json at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenTable(tt.dir, "usage", Options{Logf: quietLogf})
	if err == nil {
		t.Fatal("open succeeded over a garbage descriptor")
	}
	if !strings.Contains(err.Error(), "descriptor") {
		t.Errorf("error does not identify the descriptor: %v", err)
	}
}

func TestTruncatedDescriptorFailsOpenCleanly(t *testing.T) {
	tt := newTestTable(t, Options{Logf: quietLogf})
	mustInsert(t, tt.Table, usageRow(1, 1, tt.clk.Now(), 0, 0))
	if err := tt.FlushAll(); err != nil {
		t.Fatal(err)
	}
	tt.Close()
	desc := filepath.Join(tt.dir, "usage", descriptorFile)
	corruptFile(t, desc, func(b []byte) []byte { return b[:len(b)/2] })
	if _, err := OpenTable(tt.dir, "usage", Options{Logf: quietLogf}); err == nil {
		t.Fatal("open succeeded over a truncated descriptor")
	}
}

func TestLeftoverDescriptorTmpRemovedOnOpen(t *testing.T) {
	tt := newTestTable(t, Options{Logf: quietLogf})
	mustInsert(t, tt.Table, usageRow(1, 1, tt.clk.Now(), 0, 0))
	if err := tt.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// A crash mid-descriptor-write leaves desc.json.tmp; the committed
	// descriptor must win and the leftover must go.
	tmp := filepath.Join(tt.dir, "usage", descriptorFile+".tmp")
	if err := os.WriteFile(tmp, []byte("half-written desc"), 0o644); err != nil {
		t.Fatal(err)
	}
	tt2 := reopen(t, tt)
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Error("leftover descriptor tmp not removed")
	}
	if rows := queryBox(t, tt2.Table, NewQuery()); len(rows) != 1 {
		t.Fatalf("recovered %d rows, want 1", len(rows))
	}
}

// TestTruncatedTabletQuarantined is the headline degradation case: one of
// two tablets is truncated mid-record (a real torn disk, not a clean
// crash), and the table must open, quarantine it, and serve the other.
func TestTruncatedTabletQuarantined(t *testing.T) {
	tt := newTestTable(t, Options{Logf: quietLogf})
	now := tt.clk.Now()
	// Two periods → two tablets in one flush.
	for i := int64(0); i < 20; i++ {
		mustInsert(t, tt.Table, usageRow(1, i, now, 0, i))
	}
	for i := int64(20); i < 40; i++ {
		mustInsert(t, tt.Table, usageRow(1, i, now-20*clock.Day, 0, i))
	}
	if err := tt.FlushAll(); err != nil {
		t.Fatal(err)
	}
	tableDir := filepath.Join(tt.dir, "usage")
	tabs := tabletFiles(t, tableDir)
	if len(tabs) != 2 {
		t.Fatalf("expected 2 tablets, found %d", len(tabs))
	}
	victim := tabs[0]
	corruptFile(t, victim, func(b []byte) []byte { return b[:len(b)/3] })

	tt2 := reopen(t, tt)
	if got := tt2.Stats().TabletsQuarantined.Load(); got != 1 {
		t.Errorf("TabletsQuarantined = %d, want 1", got)
	}
	if n := tt2.DiskTabletCount(); n != 1 {
		t.Errorf("DiskTabletCount = %d, want 1", n)
	}
	rows := queryBox(t, tt2.Table, NewQuery())
	if len(rows) != 20 {
		t.Fatalf("recovered %d rows, want the surviving tablet's 20", len(rows))
	}
	if _, err := os.Stat(victim + quarantineSuffix); err != nil {
		t.Errorf("quarantine file missing: %v", err)
	}
	if _, err := os.Stat(victim); !os.IsNotExist(err) {
		t.Errorf("damaged tablet still present under its original name")
	}

	// The reduced descriptor was persisted: a second open must come up
	// clean, with no fresh quarantines, and the quarantine file untouched.
	tt3 := reopen(t, tt2)
	if got := tt3.Stats().TabletsQuarantined.Load(); got != 0 {
		t.Errorf("second open quarantined %d tablets, want 0", got)
	}
	if len(queryBox(t, tt3.Table, NewQuery())) != 20 {
		t.Error("rows lost on second open")
	}
	if _, err := os.Stat(victim + quarantineSuffix); err != nil {
		t.Errorf("quarantine file removed by orphan cleaning: %v", err)
	}
}

// TestBitFlippedBlockQuarantinedWithVerify: a single flipped byte inside a
// block is invisible to footer loading; VerifyOnOpen must catch the
// checksum mismatch and quarantine the tablet instead of letting queries
// fail later.
func TestBitFlippedBlockQuarantined(t *testing.T) {
	tt := newTestTable(t, Options{Logf: quietLogf})
	now := tt.clk.Now()
	for i := int64(0); i < 100; i++ {
		mustInsert(t, tt.Table, usageRow(1, i, now+i, float64(i), i))
	}
	if err := tt.FlushAll(); err != nil {
		t.Fatal(err)
	}
	tt.Close()
	tableDir := filepath.Join(tt.dir, "usage")
	tabs := tabletFiles(t, tableDir)
	if len(tabs) != 1 {
		t.Fatalf("expected 1 tablet, found %d", len(tabs))
	}
	corruptFile(t, tabs[0], func(b []byte) []byte {
		b[64] ^= 0x40 // one bit, inside the first block record
		return b
	})

	// Footer-only open cannot see the damage.
	plain, err := OpenTable(tt.dir, "usage", Options{Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	if got := plain.Stats().TabletsQuarantined.Load(); got != 0 {
		t.Errorf("footer-only open quarantined %d tablets; damage is inside a block", got)
	}
	// ...but the damage surfaces as a query error, not a panic.
	if _, err := plain.QueryAll(NewQuery()); err == nil {
		t.Error("query over a bit-flipped block succeeded")
	}
	if got := plain.Stats().ReadErrors.Load(); got == 0 {
		t.Error("ReadErrors not counted for the corrupt block")
	}
	plain.Close()

	verified, err := OpenTable(tt.dir, "usage", Options{Logf: quietLogf, VerifyOnOpen: true})
	if err != nil {
		t.Fatal(err)
	}
	defer verified.Close()
	if got := verified.Stats().TabletsQuarantined.Load(); got != 1 {
		t.Errorf("VerifyOnOpen quarantined %d tablets, want 1", got)
	}
	rows, err := verified.QueryAll(NewQuery())
	if err != nil {
		t.Fatalf("query after quarantine: %v", err)
	}
	if len(rows) != 0 {
		t.Errorf("quarantined tablet still served %d rows", len(rows))
	}
}

// TestInjectedReadErrorSurfacesAsQueryError: a failing disk read mid-query
// is a per-query error; the table stays up and recovers when the fault
// clears.
func TestInjectedReadErrorSurfacesAsQueryError(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFault(vfs.OsFS{})
	clk := clock.NewFake(testStart)
	tab, err := CreateTable(dir, "usage", usageSchema(), 0, Options{
		Clock: clk, FS: ffs, Logf: quietLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	now := clk.Now()
	for i := int64(0); i < 50; i++ {
		mustInsert(t, tab, usageRow(1, i, now+i, 0, i))
	}
	if err := tab.FlushAll(); err != nil {
		t.Fatal(err)
	}

	ffs.Inject(&vfs.Fault{Op: vfs.OpRead, Path: ".tab", Persistent: true})
	if _, err := tab.QueryAll(NewQuery()); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("query error = %v, want injected fault", err)
	}
	if got := tab.Stats().ReadErrors.Load(); got == 0 {
		t.Error("ReadErrors not counted")
	}

	ffs.Clear()
	rows, err := tab.QueryAll(NewQuery())
	if err != nil {
		t.Fatalf("query after fault cleared: %v", err)
	}
	if len(rows) != 50 {
		t.Fatalf("got %d rows after fault cleared, want 50", len(rows))
	}
}

// TestFlushFailureRetriesWithoutLoss: a failed flush leaves the group
// pending; the retry flushes it and nothing is lost.
func TestFlushFailureRetriesWithoutLoss(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFault(vfs.OsFS{})
	clk := clock.NewFake(testStart)
	tab, err := CreateTable(dir, "usage", usageSchema(), 0, Options{
		Clock: clk, FS: ffs, Logf: quietLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	now := clk.Now()
	for i := int64(0); i < 30; i++ {
		mustInsert(t, tab, usageRow(1, i, now+i, 0, i))
	}

	ffs.Inject(&vfs.Fault{Op: vfs.OpCreate, Path: ".tab"})
	if err := tab.FlushAll(); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("FlushAll error = %v, want injected fault", err)
	}
	if got := tab.Stats().FlushFailures.Load(); got != 1 {
		t.Errorf("FlushFailures = %d, want 1", got)
	}

	if err := tab.FlushAll(); err != nil {
		t.Fatalf("retry flush: %v", err)
	}
	if got := tab.Stats().FaultRecoveries.Load(); got != 1 {
		t.Errorf("FaultRecoveries = %d, want 1", got)
	}

	// Crash-reopen: every row must have made it.
	tab.Close()
	re, err := OpenTable(dir, "usage", Options{Clock: clk, Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rows, err := re.QueryAll(NewQuery())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 30 || !isPrefixSet(seqsOf(rows)) {
		t.Fatalf("recovered %d rows after flush retry, want all 30", len(rows))
	}
}

// TestMergeFailureBacksOffAndRetries: a failed merge must not take the
// table down or be retried in a hot loop; after the backoff expires the
// retry succeeds and is counted as a recovery.
func TestMergeFailureBacksOffAndRetries(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFault(vfs.OsFS{})
	clk := clock.NewFake(testStart)
	tab, err := CreateTable(dir, "usage", usageSchema(), 0, Options{
		Clock: clk, FS: ffs, Logf: quietLogf, MergeDelay: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	now := clk.Now()
	seq := int64(0)
	batch := func() {
		t.Helper()
		for i := 0; i < 50; i++ {
			mustInsert(t, tab, usageRow(1, seq, now-clock.Hour+seq, 0, seq))
			seq++
		}
		if err := tab.FlushAll(); err != nil {
			t.Fatal(err)
		}
	}
	batch()
	batch()
	if n := tab.DiskTabletCount(); n != 2 {
		t.Fatalf("expected 2 tablets before merge, got %d", n)
	}
	clk.Advance(2 * clock.Second)

	ffs.Inject(&vfs.Fault{Op: vfs.OpCreate, Path: ".tab"})
	ok, err := tab.MergeStep()
	if ok || !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("MergeStep = (%v, %v), want failed merge", ok, err)
	}
	if got := tab.Stats().MergeFailures.Load(); got != 1 {
		t.Errorf("MergeFailures = %d, want 1", got)
	}
	// Inputs intact; queries unaffected.
	if n := tab.DiskTabletCount(); n != 2 {
		t.Errorf("failed merge changed tablet count to %d", n)
	}
	if rows, err := tab.QueryAll(NewQuery()); err != nil || len(rows) != 100 {
		t.Errorf("query after failed merge: %d rows, err %v", len(rows), err)
	}

	// Within the backoff window: no attempt at all.
	ok, err = tab.MergeStep()
	if ok || err != nil {
		t.Fatalf("MergeStep inside backoff = (%v, %v), want (false, nil)", ok, err)
	}
	if got := tab.Stats().MergeFailures.Load(); got != 1 {
		t.Errorf("backed-off MergeStep attempted a merge (failures %d)", got)
	}

	// Past the backoff: retry succeeds.
	clk.Advance(2 * clock.Second)
	ok, err = tab.MergeStep()
	if !ok || err != nil {
		t.Fatalf("MergeStep after backoff = (%v, %v), want success", ok, err)
	}
	if got := tab.Stats().MergeRetries.Load(); got != 1 {
		t.Errorf("MergeRetries = %d, want 1", got)
	}
	if got := tab.Stats().FaultRecoveries.Load(); got != 1 {
		t.Errorf("FaultRecoveries = %d, want 1", got)
	}
	if n := tab.DiskTabletCount(); n != 1 {
		t.Errorf("tablet count after recovered merge = %d, want 1", n)
	}
	if rows, err := tab.QueryAll(NewQuery()); err != nil || len(rows) != 100 {
		t.Errorf("query after recovered merge: %d rows, err %v", len(rows), err)
	}
}

// TestMergeBackoffGrowth: repeated failures stretch the retry backoff that
// merges and flushes share exponentially up to the cap, never beyond.
func TestMergeBackoffGrowth(t *testing.T) {
	want := []int64{
		1 * clock.Second, 2 * clock.Second, 4 * clock.Second, 8 * clock.Second,
		16 * clock.Second, 32 * clock.Second, 60 * clock.Second, 60 * clock.Second,
	}
	for i, w := range want {
		if got := retryBackoff(i + 1); got != w {
			t.Errorf("retryBackoff(%d) = %d, want %d", i+1, got, w)
		}
	}
}

// TestMergeBackoffCapped: the doubling loop is iteration-capped, so a
// pathological failure count — a long outage, or a corrupt value —
// can neither overflow the int64 multiplication nor spin; every count
// past the cap yields exactly the cap.
func TestMergeBackoffCapped(t *testing.T) {
	const maxInt = int(^uint(0) >> 1)
	for _, fails := range []int{retryBackoffMaxDoublings + 1, 100, 1 << 40, maxInt} {
		if got := retryBackoff(fails); got != retryBackoffCap {
			t.Errorf("retryBackoff(%d) = %d, want cap %d", fails, got, int64(retryBackoffCap))
		}
	}
	if got := retryBackoff(-5); got != retryBackoffBase {
		t.Errorf("retryBackoff(-5) = %d, want base %d", got, int64(retryBackoffBase))
	}
}

// TestFlushRetryScheduleBothModes pins one retry schedule for serial and
// worker flushing: after a failed flush write, neither mode retries before
// retryBackoff(1) of engine time has passed, both retry on the first Tick
// after it, no row is lost, and the failure counters agree.
func TestFlushRetryScheduleBothModes(t *testing.T) {
	type counters struct{ failures, recoveries int64 }
	got := make(map[int]counters)
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("FlushWorkers=%d", workers), func(t *testing.T) {
			ffs := vfs.NewFault(vfs.NewMem())
			clk := clock.NewFake(testStart)
			tab, err := CreateTable("/db", "usage", usageSchema(), 0, Options{
				Clock: clk, FS: ffs, Logf: quietLogf, FlushWorkers: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer tab.Close()
			const n = 50
			now := clk.Now()
			for i := int64(0); i < n; i++ {
				mustInsert(t, tab, usageRow(1, i, now+i, 0, i))
			}
			// waitFor polls cond: the workers flush in the background.
			waitFor := func(what string, cond func() bool) {
				t.Helper()
				for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("%s never happened", what)
					}
				}
			}
			tick := func(wantErr bool) {
				t.Helper()
				if err := tab.Tick(); (err != nil) != wantErr {
					t.Fatalf("Tick = %v, want error %v", err, wantErr)
				}
			}

			// The first Tick seals the aged tablet; its flush write fails.
			// Only the serial Tick runs the flush, so only it returns the
			// error.
			ffs.Inject(&vfs.Fault{Op: vfs.OpCreate, Path: ".tab"})
			clk.Advance(DefaultFlushAge)
			tick(workers == 0)
			waitFor("the flush failure", func() bool { return tab.Stats().FlushFailures.Load() > 0 })

			// One nanosecond short of the backoff, a Tick retries nothing;
			// the sleep gives a worker time to retry if it wrongly would.
			clk.Advance(retryBackoff(1) - 1)
			tick(false)
			time.Sleep(50 * time.Millisecond)
			if d := tab.FlushQueueDepth(); d != 1 {
				t.Fatalf("flush queue %d deep inside the backoff, want the failed group still queued", d)
			}
			if f := tab.Stats().FlushFailures.Load(); f != 1 {
				t.Fatalf("FlushFailures = %d inside the backoff, want 1", f)
			}

			// The first Tick past it retries, and the retry succeeds.
			clk.Advance(1)
			tick(false)
			waitFor("the retry", func() bool { return tab.FlushQueueDepth() == 0 })
			rows, err := tab.QueryAll(NewQuery())
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != n {
				t.Fatalf("%d rows after the retry, want %d", len(rows), n)
			}
			s := tab.Stats().Snapshot()
			got[workers] = counters{s.FlushFailures, s.FaultRecoveries}
		})
	}
	if got[0] != got[2] || got[0] != (counters{1, 1}) {
		t.Errorf("(FlushFailures, FaultRecoveries): serial %v, workers %v, want {1 1} in both modes", got[0], got[2])
	}
}
