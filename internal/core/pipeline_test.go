package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"littletable/internal/clock"
	"littletable/internal/schema"
	"littletable/internal/vfs"
)

// waitPipelineIdle polls until the flush workers have committed every
// sealed group.
func waitPipelineIdle(t testing.TB, tab *Table) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for tab.FlushQueueDepth() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("flush queue still %d deep after 10s", tab.FlushQueueDepth())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAsyncFlushDrainsInBackground: with flush workers, sealing a tablet
// must not require any FlushStep/Tick caller — the backlog drains on its
// own and every row stays readable throughout.
func TestAsyncFlushDrainsInBackground(t *testing.T) {
	tt := newTestTable(t, Options{FlushWorkers: 2, FlushSize: 4 << 10})
	now := tt.clk.Now()
	const n = 2000
	rows := make([]schema.Row, 0, n)
	for i := int64(0); i < n; i++ {
		rows = append(rows, usageRow(1, i%100, now-i*clock.Second, 0, i))
	}
	mustInsert(t, tt.Table, rows...)
	waitPipelineIdle(t, tt.Table)

	s := tt.Stats().Snapshot()
	if s.TabletsSealed == 0 {
		t.Fatal("no tablets sealed; FlushSize never tripped")
	}
	if s.AsyncFlushes == 0 {
		t.Error("no async flushes recorded despite workers enabled")
	}
	if s.GroupCommits == 0 || s.InsertBatches != 1 {
		t.Errorf("GroupCommits=%d InsertBatches=%d, want >=1 and 1", s.GroupCommits, s.InsertBatches)
	}
	if tt.DiskTabletCount() == 0 {
		t.Error("no on-disk tablets after background flushing")
	}
	if tt.SealedBytes() != 0 {
		t.Errorf("SealedBytes = %d after drain, want 0", tt.SealedBytes())
	}
	if got := queryBox(t, tt.Table, NewQuery()); len(got) != n {
		t.Fatalf("query returned %d rows, want %d", len(got), n)
	}
}

// TestFlushAllWithWorkers: FlushAll must drain groups that concurrent
// workers have already claimed, waiting on their commits rather than
// re-writing them.
func TestFlushAllWithWorkers(t *testing.T) {
	tt := newTestTable(t, Options{FlushWorkers: 2, FlushSize: 4 << 10})
	now := tt.clk.Now()
	const n = 1200
	rows := make([]schema.Row, 0, n)
	for i := int64(0); i < n; i++ {
		rows = append(rows, usageRow(2, i%64, now-i*clock.Second, 0, i))
	}
	mustInsert(t, tt.Table, rows...)
	if err := tt.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if d := tt.FlushQueueDepth(); d != 0 {
		t.Errorf("FlushQueueDepth = %d after FlushAll", d)
	}
	if m := tt.MemTabletCount(); m != 0 {
		t.Errorf("MemTabletCount = %d after FlushAll", m)
	}
	if got := queryBox(t, tt.Table, NewQuery()); len(got) != n {
		t.Fatalf("query returned %d rows, want %d", len(got), n)
	}
}

// TestBackpressureSyncSelfDrains: without workers, an inserter that trips
// the unflushed-bytes cap becomes disk-bound and drains its own backlog,
// exactly like the seed engine's pending-tablet limit.
func TestBackpressureSyncSelfDrains(t *testing.T) {
	tt := newTestTable(t, Options{FlushSize: 2 << 10, MaxUnflushedBytes: 1})
	now := tt.clk.Now()
	const n = 1000
	rows := make([]schema.Row, 0, n)
	for i := int64(0); i < n; i++ {
		rows = append(rows, usageRow(3, i%32, now-i*clock.Second, 0, i))
	}
	mustInsert(t, tt.Table, rows...)
	s := tt.Stats().Snapshot()
	if s.BackpressureStalls == 0 {
		t.Error("no backpressure stalls despite a 1-byte cap")
	}
	if d := tt.FlushQueueDepth(); d != 0 {
		t.Errorf("FlushQueueDepth = %d; self-drain left a backlog", d)
	}
	if tt.DiskTabletCount() == 0 {
		t.Error("nothing flushed by backpressure self-drain")
	}
	if got := queryBox(t, tt.Table, NewQuery()); len(got) != n {
		t.Fatalf("query returned %d rows, want %d", len(got), n)
	}
}

// TestBackpressureAsyncBlocksUntilDrained: with workers, the same cap must
// block the inserter (counted as stalls) until the workers catch up — and
// never deadlock.
func TestBackpressureAsyncBlocksUntilDrained(t *testing.T) {
	tt := newTestTable(t, Options{FlushWorkers: 1, FlushSize: 2 << 10, MaxUnflushedBytes: 1})
	now := tt.clk.Now()
	const n = 1000
	rows := make([]schema.Row, 0, n)
	for i := int64(0); i < n; i++ {
		rows = append(rows, usageRow(4, i%32, now-i*clock.Second, 0, i))
	}
	done := make(chan error, 1)
	go func() { done <- tt.Insert(rows) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("insert deadlocked under async backpressure")
	}
	if s := tt.Stats().Snapshot(); s.BackpressureStalls == 0 {
		t.Error("no backpressure stalls despite a 1-byte cap")
	}
	waitPipelineIdle(t, tt.Table)
	if got := queryBox(t, tt.Table, NewQuery()); len(got) != n {
		t.Fatalf("query returned %d rows, want %d", len(got), n)
	}
}

// TestIntraChunkDuplicateAcrossSeal: two same-key rows in one insert chunk
// must be rejected even when the first trips FlushSize mid-chunk and the
// duplicate would land in a fresh memtable that never saw it. Regression:
// the batched pre-check probed only table state, which cannot see rows
// earlier in the same (not yet applied) chunk, and the memtable collision
// backstop is blind across a mid-chunk seal.
func TestIntraChunkDuplicateAcrossSeal(t *testing.T) {
	// FlushSize 1: every applied row seals its tablet immediately, so the
	// duplicate's memtable is always fresh.
	tt := newTestTable(t, Options{FlushSize: 1})
	now := tt.clk.Now()
	err := tt.Insert([]schema.Row{
		usageRow(9, 1, now, 1.0, 0),
		usageRow(9, 2, now, 2.0, 1),
		usageRow(9, 1, now, 3.0, 2), // duplicates row 0's key
	})
	if !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("Insert = %v, want ErrDuplicateKey", err)
	}
	if err := tt.FlushAll(); err != nil {
		t.Fatal(err)
	}
	got := queryBox(t, tt.Table, NewQuery())
	if len(got) != 2 {
		t.Fatalf("%d rows retained, want 2 (rows before the duplicate)", len(got))
	}
	sc := tt.Schema()
	if sc.CompareKeys(got[0], got[1]) == 0 {
		t.Fatal("duplicate primary keys persisted")
	}
}

// TestAsyncCommitFailureSurfaces: when a background flush's descriptor
// commit fails, the sealed rows are gone — that loss must be counted
// (CommitFailures, RowsLost) and returned to a foreground caller as
// ErrRowsLost, not merely logged by the worker.
func TestAsyncCommitFailureSurfaces(t *testing.T) {
	ffs := vfs.NewFault(vfs.NewMem())
	clk := clock.NewFake(testStart)
	tab, err := CreateTable("/db", "usage", usageSchema(), 0, Options{
		Clock: clk, FS: ffs, Logf: quietLogf,
		FlushWorkers: 1, FlushSize: 2 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()

	// Tablet files write fine; the rename publishing the next descriptor
	// fails once, dropping every group in that commit's prefix.
	ffs.Inject(&vfs.Fault{Op: vfs.OpRename, Path: descriptorFile, Nth: 1})
	now := clk.Now()
	const n = 600
	rows := make([]schema.Row, 0, n)
	for i := int64(0); i < n; i++ {
		rows = append(rows, usageRow(7, i%32, now-i*clock.Second, 0, i))
	}
	err = tab.Insert(rows)
	// The worker may latch the loss while the insert is still applying
	// chunks, in which case the insert itself reports it.
	observed := errors.Is(err, ErrRowsLost)
	if err != nil && !observed {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for tab.Stats().RowsLost.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("commit fault never fired")
		}
		time.Sleep(time.Millisecond)
	}
	for !observed {
		if time.Now().After(deadline) {
			t.Fatal("row loss never surfaced to a foreground caller")
		}
		if err := tab.Tick(); err != nil {
			if !errors.Is(err, ErrRowsLost) {
				t.Fatal(err)
			}
			observed = true
		}
		time.Sleep(time.Millisecond)
	}

	waitPipelineIdle(t, tab)
	s := tab.Stats().Snapshot()
	if s.CommitFailures != 1 {
		t.Errorf("CommitFailures = %d, want 1", s.CommitFailures)
	}
	if s.RowsLost <= 0 || s.RowsLost > n {
		t.Errorf("RowsLost = %d, want 1..%d", s.RowsLost, n)
	}
	// The latch is cleared once taken: a later caller is not haunted.
	if err := tab.Tick(); err != nil {
		t.Errorf("Tick after loss was surfaced = %v, want nil", err)
	}
	got, err := tab.QueryAll(NewQuery())
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(got)) != n-s.RowsLost {
		t.Fatalf("%d rows readable, want %d (inserted %d, lost %d)",
			len(got), n-s.RowsLost, n, s.RowsLost)
	}
}

// TestBackpressureSyncConcurrentInserters: without workers, concurrent
// inserters over the cap must cooperate — one that finds every queued
// group claimed by a peer waits for the peer's commit instead of returning
// with the cap exceeded — and must never deadlock doing so.
func TestBackpressureSyncConcurrentInserters(t *testing.T) {
	tt := newTestTable(t, Options{FlushSize: 2 << 10, MaxUnflushedBytes: 1})
	now := tt.clk.Now()
	const workers, per = 4, 300
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows := make([]schema.Row, 0, per)
			for i := int64(0); i < per; i++ {
				rows = append(rows, usageRow(int64(300+w), i%16, now-i*clock.Second, 0, i))
			}
			if err := tt.Insert(rows); err != nil {
				t.Errorf("inserter %d: %v", w, err)
			}
		}()
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("concurrent sync backpressure deadlocked")
	}
	if t.Failed() {
		return
	}
	if s := tt.Stats().Snapshot(); s.BackpressureStalls == 0 {
		t.Error("no backpressure stalls despite a 1-byte cap")
	}
	if d := tt.FlushQueueDepth(); d != 0 {
		t.Errorf("FlushQueueDepth = %d after all inserters returned", d)
	}
	if got := queryBox(t, tt.Table, NewQuery()); len(got) != workers*per {
		t.Fatalf("query returned %d rows, want %d", len(got), workers*per)
	}
}

// TestGroupCommitConcurrentInserters: concurrent Insert calls must all
// land (group-commit application preserves per-batch results) and the
// insert lock must be taken at most once per batch, usually less.
func TestGroupCommitConcurrentInserters(t *testing.T) {
	tt := newTestTable(t, Options{FlushWorkers: 2, FlushSize: 32 << 10})
	const workers, batches, per = 4, 25, 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				rows := make([]schema.Row, 0, per)
				for i := 0; i < per; i++ {
					seq := int64(b*per + i)
					rows = append(rows, usageRow(int64(200+w), seq, testStart+seq, 0, seq))
				}
				if err := tt.Insert(rows); err != nil {
					t.Errorf("inserter %d: %v", w, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	s := tt.Stats().Snapshot()
	total := int64(workers * batches * per)
	if s.RowsInserted != total {
		t.Errorf("RowsInserted = %d, want %d", s.RowsInserted, total)
	}
	if s.InsertBatches != workers*batches {
		t.Errorf("InsertBatches = %d, want %d", s.InsertBatches, workers*batches)
	}
	if s.GroupCommits == 0 || s.GroupCommits > s.InsertBatches {
		t.Errorf("GroupCommits = %d, want 1..%d", s.GroupCommits, s.InsertBatches)
	}
	if got := queryBox(t, tt.Table, NewQuery()); int64(len(got)) != total {
		t.Fatalf("query returned %d rows, want %d", len(got), total)
	}
}

// TestAsyncFlushRetriesAfterFault: a write fault on the async path must
// not lose rows or wedge the pipeline — the worker backs off, retries,
// and the backlog drains once the disk heals.
func TestAsyncFlushRetriesAfterFault(t *testing.T) {
	ffs := vfs.NewFault(vfs.NewMem())
	clk := clock.NewFake(testStart)
	tab, err := CreateTable("/db", "usage", usageSchema(), 0, Options{
		Clock: clk, FS: ffs, Logf: quietLogf,
		FlushWorkers: 1, FlushSize: 2 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()

	ffs.Inject(&vfs.Fault{Op: vfs.OpCreate, Path: ".tab", Nth: 1})
	now := clk.Now()
	const n = 600
	rows := make([]schema.Row, 0, n)
	for i := int64(0); i < n; i++ {
		rows = append(rows, usageRow(5, i%32, now-i*clock.Second, 0, i))
	}
	if err := tab.Insert(rows); err != nil {
		t.Fatal(err)
	}
	waitPipelineIdle(t, tab)
	s := tab.Stats().Snapshot()
	if ffs.Injected() == 0 {
		t.Fatal("fault never fired; test exercised nothing")
	}
	if s.FlushFailures == 0 || s.FaultRecoveries == 0 {
		t.Errorf("FlushFailures=%d FaultRecoveries=%d, want both > 0", s.FlushFailures, s.FaultRecoveries)
	}
	got, err := tab.QueryAll(NewQuery())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("query returned %d rows, want %d", len(got), n)
	}
}

// TestCloseStopsFlushWorkers: Close must stop the worker pool promptly —
// even mid-backoff with an undrainable backlog — and leak no goroutines.
func TestCloseStopsFlushWorkers(t *testing.T) {
	baseline := stableGoroutineCount()
	ffs := vfs.NewFault(vfs.NewMem())
	clk := clock.NewFake(testStart)
	tab, err := CreateTable("/db", "usage", usageSchema(), 0, Options{
		Clock: clk, FS: ffs, Logf: quietLogf,
		FlushWorkers: 4, FlushSize: 1 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every tablet write fails: the backlog is permanently stuck and the
	// workers sit in retry backoff.
	ffs.Inject(&vfs.Fault{Op: vfs.OpCreate, Path: ".tab", Persistent: true})
	now := clk.Now()
	rows := make([]schema.Row, 0, 400)
	for i := int64(0); i < 400; i++ {
		rows = append(rows, usageRow(6, i%16, now-i*clock.Second, 0, i))
	}
	if err := tab.Insert(rows); err != nil {
		t.Fatal(err)
	}
	if err := tab.Close(); err != nil {
		t.Fatal(err)
	}
	checkGoroutineCount(t, baseline)
}

// TestInsertAfterCloseFailsFast: inserters parked on backpressure when the
// table closes must return ErrTableClosed, not hang.
func TestInsertAfterCloseFails(t *testing.T) {
	tt := newTestTable(t, Options{FlushWorkers: 1})
	if err := tt.Close(); err != nil {
		t.Fatal(err)
	}
	err := tt.Insert([]schema.Row{usageRow(1, 1, testStart, 0, 0)})
	if !errors.Is(err, ErrTableClosed) {
		t.Fatalf("Insert after close = %v, want ErrTableClosed", err)
	}
}

// TestEightTableAsyncStress is the write-path analogue of the read-path
// stress: concurrent inserters across 8 tables while each table's flush
// workers run, then a differential check that every accepted row — and
// nothing else — is readable, and that the worker pools shut down clean.
func TestEightTableAsyncStress(t *testing.T) {
	baseline := stableGoroutineCount()
	root := t.TempDir()
	const tables = 8
	const inserters = 2 // per table

	type tableState struct {
		tab  *Table
		mu   sync.Mutex
		rows []schema.Row // accepted rows, the differential model
	}
	clk := clock.NewFake(testStart)
	states := make([]*tableState, tables)
	for i := range states {
		tab, err := CreateTable(root, "usage"+string(rune('a'+i)), usageSchema(), 0, Options{
			Clock: clk, Logf: quietLogf,
			FlushWorkers: 2, FlushSize: 4 << 10, MaxUnflushedBytes: 64 << 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		states[i] = &tableState{tab: tab}
	}

	duration := time.Second
	if testing.Short() {
		duration = 300 * time.Millisecond
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for ti, st := range states {
		for w := 0; w < inserters; w++ {
			ti, st, w := ti, st, w
			wg.Add(1)
			go func() {
				defer wg.Done()
				seq := int64(0)
				for {
					select {
					case <-stop:
						return
					default:
					}
					// Keyspace partitioned per (table, inserter): no
					// duplicate-key rejections, so every batch must land.
					batch := make([]schema.Row, 0, 16)
					for i := 0; i < 16; i++ {
						batch = append(batch, usageRow(int64(100+w), seq%50, testStart+seq, 0, seq))
						seq++
					}
					if err := st.tab.Insert(batch); err != nil {
						t.Errorf("table %d inserter %d: %v", ti, w, err)
						return
					}
					st.mu.Lock()
					st.rows = append(st.rows, batch...)
					st.mu.Unlock()
				}
			}()
		}
	}
	time.Sleep(duration)
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	for ti, st := range states {
		if err := st.tab.FlushAll(); err != nil {
			t.Fatalf("table %d: FlushAll: %v", ti, err)
		}
		sc := st.tab.Schema()
		want := st.rows
		sort.Slice(want, func(i, j int) bool { return sc.CompareKeys(want[i], want[j]) < 0 })
		got, err := st.tab.QueryAll(NewQuery())
		if err != nil {
			t.Fatalf("table %d: %v", ti, err)
		}
		if len(got) != len(want) {
			t.Fatalf("table %d: %d rows readable, model has %d", ti, len(got), len(want))
		}
		for i := range got {
			if sc.CompareKeys(got[i], want[i]) != 0 {
				t.Fatalf("table %d: row %d diverges from model", ti, i)
			}
		}
	}
	for _, st := range states {
		if err := st.tab.Close(); err != nil {
			t.Fatal(err)
		}
	}
	checkGoroutineCount(t, baseline)
}

// TestSealOrderIsDeterministic: one batch whose rows straddle three
// periods, newest first, so each older tablet depends on the newer one
// before it. Which filling tablet is sealed first decides how the
// dependency closure splits into flush groups and therefore every
// tablet's Seq; sealing in map order made that differ run to run. All
// three entry points that seal the whole filling set must produce the
// same tablets every time.
func TestSealOrderIsDeterministic(t *testing.T) {
	flushers := map[string]func(*testTable) error{
		"FlushAll":    func(tt *testTable) error { return tt.FlushAll() },
		"FlushBefore": func(tt *testTable) error { return tt.FlushBefore(TsMax) },
		"Tick": func(tt *testTable) error {
			tt.clk.Advance(DefaultFlushAge)
			return tt.Tick()
		},
	}
	for name, flush := range flushers {
		t.Run(name, func(t *testing.T) {
			var first string
			for run := 0; run < 50; run++ {
				tt := newTestTable(t, Options{})
				now := tt.clk.Now()
				mustInsert(t, tt.Table,
					usageRow(1, 1, now, 1, 0),
					usageRow(1, 1, now-2*clock.Day, 2, 1),
					usageRow(1, 1, now-3*clock.Week, 3, 2),
				)
				if err := flush(tt); err != nil {
					t.Fatal(err)
				}
				var got string
				tt.mu.Lock()
				n := len(tt.disk)
				for _, dt := range tt.disk {
					got += fmt.Sprintf("seq %d minTs %d rows %d; ", dt.rec.Seq, dt.rec.MinTs, dt.rec.RowCount)
				}
				tt.mu.Unlock()
				tt.Close()
				if n != 3 {
					t.Fatalf("run %d: want 3 tablets, one per period, got: %s", run, got)
				}
				if run == 0 {
					first = got
				} else if got != first {
					t.Fatalf("run %d sealed in a different order:\n got %s\nwant %s", run, got, first)
				}
			}
		})
	}
}
