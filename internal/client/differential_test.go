package client

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"littletable/internal/clock"
	"littletable/internal/core"
	"littletable/internal/ltval"
	"littletable/internal/schema"
	"littletable/internal/server"
)

// TestRemoteMatchesEmbedded runs randomized boxes through the wire client
// and through core on twin tables that hold the same rows: Query must
// return the same rows in the same order, and DeleteRange must remove as
// many rows as DeleteWhere. The server's row limit is small, so a box whose
// Limit is above it resumes over several pages.
func TestRemoteMatchesEmbedded(t *testing.T) {
	const rowLimit = 5
	_, addr := startServer(t, server.Options{QueryRowLimit: rowLimit})
	c := dial(t, addr)
	sc := eventsSchema()
	if err := c.CreateTable("events", sc, 0); err != nil {
		t.Fatal(err)
	}
	remote, err := c.OpenTable("events")
	if err != nil {
		t.Fatal(err)
	}
	local, err := core.CreateTable(t.TempDir(), "events", sc, 0, core.Options{Clock: clock.Real{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { local.Close() })

	// 4 networks × 4 devices × 8 timestamps, half flushed to disk and
	// half left in memory on both sides.
	now := time.Now().UnixMicro()
	stamps := make([]int64, 8)
	for i := range stamps {
		stamps[i] = now - int64(len(stamps)-i)*1000
	}
	var rows []schema.Row
	for n := int64(0); n < 4; n++ {
		for d := int64(0); d < 4; d++ {
			for i, ts := range stamps {
				rows = append(rows, eventRow(n, d, ts, int64(i), fmt.Sprintf("e%d.%d", n, d)))
			}
		}
	}
	half := len(rows) / 2
	for _, part := range [][]schema.Row{rows[:half], rows[half:]} {
		if err := remote.InsertNow(part); err != nil {
			t.Fatal(err)
		}
		if err := local.Insert(part); err != nil {
			t.Fatal(err)
		}
		if len(part) == half {
			if err := remote.FlushTable(); err != nil {
				t.Fatal(err)
			}
			if err := local.FlushAll(); err != nil {
				t.Fatal(err)
			}
		}
	}

	rng := rand.New(rand.NewSource(1))
	// bound draws a nil, empty, prefix or full-key bound.
	bound := func() []ltval.Value {
		switch rng.Intn(6) {
		case 0:
			return nil
		case 1:
			return []ltval.Value{}
		}
		b := []ltval.Value{ltval.NewInt64(rng.Int63n(6) - 1)}
		if rng.Intn(3) > 0 {
			b = append(b, ltval.NewInt64(rng.Int63n(6)-1))
			if rng.Intn(2) == 0 {
				b = append(b, ltval.NewTimestamp(stamps[rng.Intn(len(stamps))]))
			}
		}
		return b
	}
	randomBox := func() Query {
		q := NewQuery()
		q.Lower, q.Upper = bound(), bound()
		q.LowerInc, q.UpperInc = rng.Intn(2) == 0, rng.Intn(2) == 0
		if rng.Intn(3) == 0 {
			q.MinTs = stamps[rng.Intn(len(stamps))]
		}
		if rng.Intn(3) == 0 {
			q.MaxTs = stamps[rng.Intn(len(stamps))]
		}
		q.Descending = rng.Intn(2) == 0
		switch rng.Intn(3) {
		case 1:
			q.Limit = 1 + rng.Intn(rowLimit-1) // one page
		case 2:
			q.Limit = rowLimit + 1 + rng.Intn(40) // resumes
		}
		return q
	}
	format := func(rows []schema.Row) string { return fmt.Sprint(rows) }

	for i := 0; i < 400; i++ {
		q := randomBox()
		if i%10 == 9 {
			got, gotErr := remote.DeleteRange(q)
			want, wantErr := local.DeleteWhere(q, nil)
			if (gotErr != nil) != (wantErr != nil) || got != want {
				t.Fatalf("box %d %+v: DeleteRange = %d, %v; DeleteWhere = %d, %v", i, q, got, gotErr, want, wantErr)
			}
			continue
		}
		got, gotErr := remote.Query(q).All()
		want, wantErr := local.QueryAll(q)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("box %d %+v: remote err %v, embedded err %v", i, q, gotErr, wantErr)
		}
		if format(got) != format(want) {
			t.Fatalf("box %d %+v: remote returned %d rows, embedded %d\nremote   %s\nembedded %s",
				i, q, len(got), len(want), format(got), format(want))
		}
	}
}
