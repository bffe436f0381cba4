package wire

import (
	"reflect"
	"testing"

	"littletable/internal/ltval"
	"littletable/internal/metric"
	"littletable/internal/schema"
)

func TestScatterQueryRoundTrip(t *testing.T) {
	m := &ScatterQuery{
		Prefix:   "cust_",
		HasLower: true, Lower: []ltval.Value{ltval.NewInt64(3)}, LowerInc: true,
		HasUpper: true, Upper: []ltval.Value{ltval.NewInt64(9)},
		MinTs: -5, MaxTs: 99, Descending: true,
		PerTableLimit: 128, MaxTables: 1000,
	}
	g, err := DecodeScatterQuery(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, g) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", g, m)
	}
}

func TestScatterRowsRoundTrip(t *testing.T) {
	sc := schema.MustNew([]schema.Column{
		{Name: "k", Type: ltval.Int64},
		{Name: "ts", Type: ltval.Timestamp},
		{Name: "v", Type: ltval.Double},
	}, []string{"k", "ts"})
	sc2 := schema.MustNew([]schema.Column{
		{Name: "name", Type: ltval.String},
		{Name: "ts", Type: ltval.Timestamp},
	}, []string{"name", "ts"})
	m := &ScatterRows{
		Truncated: true,
		Tables: []ScatterTableRows{
			{Table: "cust_a", Schema: sc, More: true, Rows: []schema.Row{
				{ltval.NewInt64(1), ltval.NewTimestamp(10), ltval.NewDouble(0.5)},
				{ltval.NewInt64(2), ltval.NewTimestamp(20), ltval.NewDouble(1.5)},
			}},
			// A table with a different shape in the same response, and one
			// with no rows at all.
			{Table: "cust_b", Schema: sc2, Rows: []schema.Row{
				{ltval.NewString("x"), ltval.NewTimestamp(7)},
			}},
			{Table: "cust_c", Schema: sc},
		},
	}
	p, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	g, err := DecodeScatterRows(p)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Truncated || len(g.Tables) != 3 {
		t.Fatalf("got truncated=%v tables=%d", g.Truncated, len(g.Tables))
	}
	for i := range m.Tables {
		want, got := m.Tables[i], g.Tables[i]
		if got.Table != want.Table || got.More != want.More || len(got.Rows) != len(want.Rows) {
			t.Fatalf("table %d: got %+v want %+v", i, got, want)
		}
		for j := range want.Rows {
			for c := range want.Rows[j] {
				if want.Rows[j][c].Compare(got.Rows[j][c]) != 0 {
					t.Fatalf("table %d row %d col %d: got %v want %v", i, j, c, got.Rows[j][c], want.Rows[j][c])
				}
			}
		}
	}
}

func TestMigrateMessagesRoundTrip(t *testing.T) {
	sc := schema.MustNew([]schema.Column{
		{Name: "k", Type: ltval.Int64},
		{Name: "ts", Type: ltval.Timestamp},
	}, []string{"k", "ts"})

	mb := &MigrateBegin{Table: "t1"}
	if g, err := DecodeMigrateBegin(mb.Encode()); err != nil || g.Table != "t1" {
		t.Fatalf("MigrateBegin: %+v %v", g, err)
	}

	man := &MigrateManifest{Schema: sc, TTL: 3600, Tablets: []MigrateTabletInfo{
		{File: "000000000001.tab", Seq: 1, RowCount: 100, MinTs: 5, MaxTs: 50, Bytes: 4096},
		{File: "000000000002.tab", Seq: 2, RowCount: 7, MinTs: 60, MaxTs: 61, Bytes: 256},
	}}
	p, err := man.Encode()
	if err != nil {
		t.Fatal(err)
	}
	gman, err := DecodeMigrateManifest(p)
	if err != nil {
		t.Fatal(err)
	}
	if gman.TTL != 3600 || !reflect.DeepEqual(gman.Tablets, man.Tablets) {
		t.Fatalf("manifest: got %+v want %+v", gman, man)
	}

	mf := &MigrateFetch{Table: "t1", File: "000000000001.tab", Offset: 1 << 20, MaxBytes: 1 << 16}
	if g, err := DecodeMigrateFetch(mf.Encode()); err != nil || !reflect.DeepEqual(g, mf) {
		t.Fatalf("MigrateFetch: %+v %v", g, err)
	}

	mc := &MigrateChunk{Total: 4096, Data: []byte{9, 8, 7}}
	if g, err := DecodeMigrateChunk(mc.Encode()); err != nil || g.Total != 4096 || len(g.Data) != 3 {
		t.Fatalf("MigrateChunk: %+v %v", g, err)
	}

	me := &MigrateEnd{Table: "t1"}
	if g, err := DecodeMigrateEnd(me.Encode()); err != nil || g.Table != "t1" {
		t.Fatalf("MigrateEnd: %+v %v", g, err)
	}

	mi := &MigrateInstall{
		Table: "t1", File: "000000000001.tab", Offset: 128, Total: 131,
		RowCount: 100, MinTs: 5, MaxTs: 50, Commit: true, Data: []byte{1, 2, 3},
	}
	gi, err := DecodeMigrateInstall(mi.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if gi.Table != "t1" || gi.Offset != 128 || gi.Total != 131 || !gi.Commit || len(gi.Data) != 3 {
		t.Fatalf("MigrateInstall: %+v", gi)
	}

	mt := &MigrateTable{Table: "t1", TargetAddr: "127.0.0.1:9156"}
	if g, err := DecodeMigrateTable(mt.Encode()); err != nil || !reflect.DeepEqual(g, mt) {
		t.Fatalf("MigrateTable: %+v %v", g, err)
	}
}

func TestRouterStatsResultRoundTrip(t *testing.T) {
	m := &RouterStatsResult{
		Counters: metric.List{{Name: "routed_inserts", Value: 1}, {Name: "migrated_bytes", Value: 7}},
		Shards: []RouterShardInfo{
			{Addr: "127.0.0.1:9155", State: 0},
			{Addr: "127.0.0.1:9156", State: 2},
		},
	}
	g, err := DecodeRouterStatsResult(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, g) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", g, m)
	}
}

func TestRouterDecodeGarbage(t *testing.T) {
	garbage := [][]byte{nil, {1}, {255, 255, 255, 255}, {0, 0, 0, 0, 9, 9, 9}}
	for _, g := range garbage {
		DecodeScatterQuery(g)
		DecodeScatterRows(g)
		DecodeMigrateBegin(g)
		DecodeMigrateManifest(g)
		DecodeMigrateFetch(g)
		DecodeMigrateChunk(g)
		DecodeMigrateEnd(g)
		DecodeMigrateInstall(g)
		DecodeMigrateTable(g)
		DecodeRouterStatsResult(g)
		// Not panicking is the assertion.
	}
}
