package client

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"littletable/internal/core"
	"littletable/internal/ltval"
	"littletable/internal/schema"
	"littletable/internal/server"
)

// TestServerStress hammers one server over many connections with the full
// mixed workload — inserts, queries, latest-row, deletes, flushes, schema
// reads, stats — while the maintenance loop flushes and merges underneath.
// Correctness bar: no errors other than expected duplicates, and a final
// ordered, duplicate-free read-back. Run with -race in CI.
func TestServerStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	_, addr := startServer(t, server.Options{Core: core.Options{
		FlushSize:  8 << 10,
		MergeDelay: (200 * time.Millisecond).Microseconds(),
	}})
	admin := dial(t, addr)
	sc := schema.MustNew([]schema.Column{
		{Name: "writer", Type: ltval.Int64},
		{Name: "seq", Type: ltval.Int64},
		{Name: "ts", Type: ltval.Timestamp},
		{Name: "payload", Type: ltval.String},
	}, []string{"writer", "seq", "ts"})
	if err := admin.CreateTable("stress", sc, 0); err != nil {
		t.Fatal(err)
	}

	const (
		writers       = 4
		readers       = 3
		rowsPerWriter = 1500
	)
	var wg sync.WaitGroup
	errCh := make(chan error, writers+readers)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			tab, err := c.OpenTable("stress")
			if err != nil {
				errCh <- err
				return
			}
			tab.BatchSize = 64
			base := time.Now().UnixMicro()
			for i := 0; i < rowsPerWriter; i++ {
				err := tab.Insert(schema.Row{
					ltval.NewInt64(int64(w)),
					ltval.NewInt64(int64(i)),
					ltval.NewTimestamp(base + int64(i)),
					ltval.NewString(fmt.Sprintf("payload-%d-%d", w, i)),
				})
				if err != nil {
					errCh <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
			if err := tab.Flush(); err != nil {
				errCh <- err
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			tab, err := c.OpenTable("stress")
			if err != nil {
				errCh <- err
				return
			}
			for k := 0; k < 30; k++ {
				q := NewQuery()
				q.Lower = []ltval.Value{ltval.NewInt64(int64(k % writers))}
				q.Upper = q.Lower
				rows, err := tab.Query(q).All()
				if err != nil {
					errCh <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				for i := 1; i < len(rows); i++ {
					if rows[i-1][1].Int >= rows[i][1].Int {
						errCh <- fmt.Errorf("reader %d: unordered seqs under load", r)
						return
					}
				}
				if _, _, err := tab.LatestRow([]ltval.Value{ltval.NewInt64(int64(k % writers))}); err != nil {
					errCh <- err
					return
				}
				if _, err := tab.Stats(); err != nil {
					errCh <- err
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Final read-back: exactly writers × rowsPerWriter unique rows, ordered.
	tab, err := admin.OpenTable("stress")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := tab.Query(NewQuery()).All()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != writers*rowsPerWriter {
		t.Fatalf("final count %d, want %d", len(rows), writers*rowsPerWriter)
	}
	seen := map[[2]int64]bool{}
	for _, r := range rows {
		k := [2]int64{r[0].Int, r[1].Int}
		if seen[k] {
			t.Fatalf("duplicate row %v", k)
		}
		seen[k] = true
	}
	// Targeted delete under no contention still works after the storm.
	n, err := tab.DeleteRange(func() Query {
		q := NewQuery()
		q.Lower = []ltval.Value{ltval.NewInt64(0)}
		q.Upper = q.Lower
		return q
	}())
	if err != nil || n != rowsPerWriter {
		t.Fatalf("post-stress delete: %d, %v", n, err)
	}
}
