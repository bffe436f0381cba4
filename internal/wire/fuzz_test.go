package wire

import (
	"testing"

	"littletable/internal/ltval"
	"littletable/internal/metric"
	"littletable/internal/schema"
)

// FuzzDecoders: arbitrary payloads into every message decoder must error
// or succeed, never panic — the server feeds network bytes straight in.
func FuzzDecoders(f *testing.F) {
	sc := schema.MustNew([]schema.Column{
		{Name: "k", Type: ltval.Int64},
		{Name: "ts", Type: ltval.Timestamp},
		{Name: "s", Type: ltval.String},
	}, []string{"k", "ts"})
	// Seeds: valid encodings of several messages.
	f.Add((&Hello{Version: 1}).Encode())
	q := &Query{Table: "t", HasLower: true, Lower: []ltval.Value{ltval.NewInt64(1)}, MinTs: -1, MaxTs: 1}
	f.Add(q.Encode())
	ins := NewInsert("t", sc, true, []schema.Row{{ltval.NewInt64(1), ltval.NewTimestamp(2), ltval.NewString("x")}})
	f.Add(ins.Encode())
	f.Add((&Delete{Table: "t", MinTs: 0, MaxTs: 10}).Encode())
	f.Add((&TableList{Names: []string{"a", "b"}}).Encode())
	sq := &ScatterQuery{Prefix: "cust_", HasUpper: true, Upper: []ltval.Value{ltval.NewInt64(9)}, MaxTs: 5, PerTableLimit: 10}
	f.Add(sq.Encode())
	sr, _ := (&ScatterRows{Tables: []ScatterTableRows{{
		Table: "t", Schema: sc, More: true,
		Rows: []schema.Row{{ltval.NewInt64(1), ltval.NewTimestamp(2), ltval.NewString("x")}},
	}}}).Encode()
	f.Add(sr)
	mf, _ := (&MigrateManifest{Schema: sc, TTL: 60, Tablets: []MigrateTabletInfo{
		{File: "000000000001.tab", Seq: 1, RowCount: 5, MinTs: 1, MaxTs: 9, Bytes: 512},
	}}).Encode()
	f.Add(mf)
	f.Add((&MigrateFetch{Table: "t", File: "000000000001.tab", Offset: 64, MaxBytes: 1 << 20}).Encode())
	f.Add((&MigrateInstall{Table: "t", File: "000000000001.tab", Total: 3, RowCount: 1, Commit: true, Data: []byte{1, 2, 3}}).Encode())
	stats := metric.List{{Name: "rows_inserted", Value: 7}, {Name: "disk_bytes", Value: 1 << 40}}
	f.Add(EncodeStats(stats))
	f.Add((&RouterStatsResult{Counters: stats, Shards: []RouterShardInfo{{Addr: "127.0.0.1:9155", State: 2}}}).Encode())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, payload []byte) {
		DecodeHello(payload)
		DecodeCreateTable(payload)
		DecodeTableName(payload)
		DecodeQuery(payload)
		DecodeLatestRow(payload)
		DecodeAlterTTL(payload)
		DecodeAddColumn(payload)
		DecodeWidenColumn(payload)
		DecodeDelete(payload)
		DecodeDeleteResult(payload)
		DecodeErrorMsg(payload)
		DecodeTableList(payload)
		DecodeSchemaResp(payload)
		DecodeStats(payload)
		DecodeRows(payload, sc)
		DecodeRowResult(payload, sc)
		DecodeScatterQuery(payload)
		DecodeScatterRows(payload)
		DecodeMigrateBegin(payload)
		DecodeMigrateManifest(payload)
		DecodeMigrateFetch(payload)
		DecodeMigrateChunk(payload)
		DecodeMigrateEnd(payload)
		DecodeMigrateInstall(payload)
		DecodeMigrateTable(payload)
		DecodeRouterStatsResult(payload)
		if m, d, err := DecodeInsertHeader(payload); err == nil {
			m.FinishDecode(d, sc)
		}
	})
}
