package server

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"littletable/internal/agg"
	"littletable/internal/clock"
	"littletable/internal/core"
	"littletable/internal/ltval"
	"littletable/internal/schema"
	"littletable/internal/wire"
)

// TestReadsShareMemtableRowsAndLeaveThemIntact pins the retained-row
// contract of core.Table.Insert and Iterator.Row. Queries hand out the
// memtable's own rows, not copies, so no reader may write one: this runs
// Query in both directions and under a Limit, LatestRow, a server
// AggQuery and a flush alongside a concurrent inserter (under -race, any
// write to a shared row is a reported race). Then every row a query
// returned from a sealed or filling memtable must be the inserted row
// itself, and every inserted row must still equal the deep copy taken
// before it was handed over.
func TestReadsShareMemtableRowsAndLeaveThemIntact(t *testing.T) {
	s, err := New(Options{
		Root: t.TempDir(), MaintenanceInterval: time.Hour, Logf: t.Logf,
		// A small FlushSize seals the first batch into several memtables;
		// with no flush workers and no Tick they stay sealed until FlushAll.
		Core: core.Options{FlushSize: 4 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sc := schema.MustNew([]schema.Column{
		{Name: "dev", Type: ltval.Int64},
		{Name: "ts", Type: ltval.Timestamp},
		{Name: "n", Type: ltval.Int64},
		{Name: "note", Type: ltval.String},
	}, []string{"dev", "ts"})
	tab, err := s.CreateTable("share", sc, 0)
	if err != nil {
		t.Fatal(err)
	}
	const devices, perBatch = 8, 400
	base := tab.Now() - clock.Hour
	var inserted, clones []schema.Row
	batch := func(b int) []schema.Row {
		rows := make([]schema.Row, perBatch)
		for i := range rows {
			n := b*perBatch + i
			rows[i] = schema.Row{
				ltval.NewInt64(int64(n % devices)), ltval.NewTimestamp(base + int64(n)*clock.Second),
				ltval.NewInt64(int64(n)), ltval.NewString(fmt.Sprintf("note %d", n)),
			}
			inserted = append(inserted, rows[i])
			clones = append(clones, schema.CloneRow(rows[i]))
		}
		return rows
	}
	for b := 0; b < 2; b++ {
		if err := tab.Insert(batch(b)); err != nil {
			t.Fatal(err)
		}
	}
	if st := tab.Stats().Snapshot(); st.TabletsSealed == 0 || tab.DiskTabletCount() != 0 {
		t.Fatalf("%d tablets sealed, %d on disk: want sealed memtables and nothing flushed", st.TabletsSealed, tab.DiskTabletCount())
	}
	late := batch(2) // inserted while the readers run

	// sameRows checks a query's rows against the inserted ones they came
	// from: while every row is in a memtable (own), the same backing array,
	// not a copy.
	sameRows := func(what string, q core.Query, own bool) error {
		it, err := tab.Query(q)
		if err != nil {
			return err
		}
		defer it.Close()
		got := 0
		for it.Next() {
			row := it.Row()
			if want := inserted[row[2].Int]; own && &row[0] != &want[0] {
				return fmt.Errorf("%s: row %d is a copy, want the memtable's own row", what, row[2].Int)
			}
			got++
		}
		if err := it.Err(); err != nil {
			return err
		}
		if got == 0 {
			return fmt.Errorf("%s: no rows", what)
		}
		return nil
	}
	aggReq := encode(&wire.AggQuery{
		Prefix: "share", MinTs: base, MaxTs: base + 2*perBatch*clock.Second,
		Spec: agg.Spec{BucketWidth: clock.Minute, GroupCols: 1, Aggs: []agg.Agg{
			{Func: agg.Count}, {Func: agg.Sum, Col: "n"}, {Func: agg.Max, Col: "note"},
		}},
	})
	reads := func(own bool) error {
		asc := core.NewQuery()
		if err := sameRows("ascending", asc, own); err != nil {
			return err
		}
		desc := core.NewQuery()
		desc.Descending, desc.Limit = true, 25
		if err := sameRows("descending, limit 25", desc, own); err != nil {
			return err
		}
		win := core.NewQuery()
		win.Lower, win.Upper = []ltval.Value{ltval.NewInt64(3)}, []ltval.Value{ltval.NewInt64(3)}
		win.MinTs, win.MaxTs = base+100*clock.Second, base+500*clock.Second
		if err := sameRows("one device, a window", win, own); err != nil {
			return err
		}
		for d := int64(0); d < devices; d++ {
			if _, ok, err := tab.LatestRow([]ltval.Value{ltval.NewInt64(d)}); err != nil || !ok {
				return fmt.Errorf("LatestRow(%d) = %v, %v", d, ok, err)
			}
		}
		var out bytes.Buffer
		if err := s.handleAggQuery(wire.NewConn(&out), aggReq); err != nil {
			return err
		}
		mt, payload, err := wire.NewConn(&out).ReadMsg()
		if err != nil {
			return err
		}
		if mt != wire.MsgAggResult {
			return fmt.Errorf("AggQuery answered message type %d: %q", mt, payload)
		}
		res, err := wire.DecodeAggResult(payload)
		if err != nil {
			return err
		}
		if res.RowsFolded < 2*perBatch {
			return fmt.Errorf("AggQuery folded %d rows, want at least %d", res.RowsFolded, 2*perBatch)
		}
		return nil
	}

	// Readers race a writer: first an inserter, while every row is still
	// in a memtable, then a flush, which walks the sealed trees the
	// readers walk in place.
	contend := func(own bool, write func() error) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make(chan error, 4)
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 5; i++ {
					if err := reads(own); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := write(); err != nil {
				errs <- err
			}
		}()
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
	contend(true, func() error {
		for i := 0; i < len(late); i += 50 {
			if err := tab.Insert(late[i : i+50]); err != nil {
				return err
			}
		}
		return nil
	})
	if err := reads(true); err != nil {
		t.Fatal(err)
	}
	contend(false, tab.FlushAll)
	if tab.MemTabletCount() != 0 {
		t.Fatalf("%d memtables after FlushAll, want 0", tab.MemTabletCount())
	}
	for i := range inserted {
		for c := range clones[i] {
			if !inserted[i][c].Equal(clones[i][c]) {
				t.Fatalf("inserted row %d cell %d is %v after the reads, want %v", i, c, inserted[i][c], clones[i][c])
			}
		}
	}
}
