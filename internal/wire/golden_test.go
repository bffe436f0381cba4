package wire

import (
	"encoding/hex"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"littletable/internal/agg"
	"littletable/internal/core"
	"littletable/internal/ltval"
	"littletable/internal/metric"
	"littletable/internal/schema"
)

// regenGolden rewrites the golden files under testdata/ from the current
// code. Use it only for a deliberate protocol change, which also bumps
// ProtocolVersion:
// go test ./internal/wire -run Golden -regen-golden
var regenGolden = flag.Bool("regen-golden", false, "rewrite the golden files under testdata/")

// checkGolden compares got, line by line, with testdata/name, after
// rewriting the file under -regen-golden.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *regenGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%s: %d lines, golden has %d", name, len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("%s line %d changed:\n got %s\nwant %s", name, i+1, gotLines[i], wantLines[i])
		}
	}
}

// encode is Encode for a message that cannot fail to encode.
func encode(m Message) []byte {
	p, err := Encode(m)
	if err != nil {
		panic(err)
	}
	return p
}

// newLike returns a zero message of m's type.
func newLike(m Message) Message { return reflect.New(reflect.TypeOf(m).Elem()).Interface().(Message) }

// goldenCase is one cold message; testdata/messages.golden pins its
// payload under name.
type goldenCase struct {
	name string
	m    Message
}

// goldenCases cover every cold message with several field patterns each:
// empty and non-empty lists, absent and present optional values, and
// extreme integers.
func goldenCases() []goldenCase {
	sc := schema.MustNew([]schema.Column{
		{Name: "k", Type: ltval.Int64},
		{Name: "ts", Type: ltval.Timestamp},
		{Name: "name", Type: ltval.String, Default: ltval.NewString("n/a")},
		{Name: "v", Type: ltval.Double},
	}, []string{"k", "ts"})
	every := []ltval.Value{
		ltval.NewInt32(math.MinInt32), ltval.NewInt64(math.MaxInt64), ltval.NewDouble(math.Inf(-1)),
		ltval.NewTimestamp(math.MinInt64), ltval.NewString("ap-7"), ltval.NewBlob([]byte{0, 0xff}),
		ltval.NewString(""), ltval.NewDouble(-0.5),
	}
	box := core.Query{
		Lower: every[:3], LowerInc: true, Upper: every[3:], UpperInc: false,
		MinTs: math.MinInt64, MaxTs: math.MaxInt64, Descending: true, Limit: math.MaxUint32,
	}
	negLimit := core.NewQuery()
	negLimit.Limit = -3
	hugeLimit := core.NewQuery()
	hugeLimit.Lower, hugeLimit.Upper = []ltval.Value{}, []ltval.Value{ltval.NewInt64(0)}
	hugeLimit.Limit = 1 << 40
	spec := agg.Spec{BucketWidth: math.MaxInt64, GroupCols: 3, Aggs: []agg.Agg{
		{Func: agg.Count}, {Func: agg.Sum, Col: "bytes"}, {Func: agg.Avg, Col: "rate"},
		{Func: agg.Min, Col: "rate"}, {Func: agg.Max, Col: "bytes"},
		{Func: agg.Quantile, Col: "rate", Q: 0.999}, {Func: agg.Quantile, Col: "", Q: math.Inf(1)},
	}}
	tablet := MigrateTabletInfo{File: "000000000007.tab", Seq: math.MaxUint64, RowCount: math.MaxInt64,
		MinTs: math.MinInt64, MaxTs: math.MaxInt64, Bytes: 1 << 40}
	stats := metric.List{{Name: "rows_inserted", Value: math.MaxInt64}, {Name: "", Value: math.MinInt64}, {Name: "drain_ns", Value: 0}}
	long := strings.Repeat("é", 40)
	return []goldenCase{
		{"hello/zero", &Hello{}},
		{"hello/v2", &Hello{Version: 2}},
		{"hello/max", &Hello{Version: math.MaxUint32}},
		{"create-table/empty-name", &CreateTable{Schema: sc}},
		{"create-table/ttl-max", &CreateTable{Name: "usage", Schema: sc, TTL: math.MaxInt64}},
		{"create-table/ttl-min", &CreateTable{Name: long, Schema: sc, TTL: math.MinInt64}},
		{"table-name/empty", &TableName{}},
		{"table-name/usage", &TableName{Name: "usage"}},
		{"table-name/long", &TableName{Name: long}},
		{"query/zero", &Query{}},
		{"query/all", &Query{Table: "usage", Query: core.NewQuery()}},
		{"query/every-type", &Query{Table: "usage", Query: box}},
		{"query/negative-limit", &Query{Table: "t", Query: negLimit}},
		{"query/huge-limit", &Query{Table: "t", Query: hugeLimit}},
		{"latest-row/nil-prefix", &LatestRow{Table: "usage"}},
		{"latest-row/empty-prefix", &LatestRow{Table: "usage", Prefix: []ltval.Value{}}},
		{"latest-row/every-type", &LatestRow{Table: "usage", Prefix: every}},
		{"delete/zero", &Delete{}},
		{"delete/every-type", &Delete{Table: "usage", Query: box}},
		{"delete/all", &Delete{Table: "usage", Query: negLimit}},
		{"delete-result/zero", &DeleteResult{}},
		{"delete-result/max", &DeleteResult{Deleted: math.MaxInt64}},
		{"delete-result/negative", &DeleteResult{Deleted: -1}},
		{"alter-ttl/zero", &AlterTTL{}},
		{"alter-ttl/min", &AlterTTL{Table: "usage", TTL: math.MinInt64}},
		{"alter-ttl/max", &AlterTTL{Table: "usage", TTL: math.MaxInt64}},
		{"add-column/no-default", &AddColumn{Table: "usage", Name: "n", Type: ltval.Int64}},
		{"add-column/string-default", &AddColumn{Table: "usage", Name: "tag", Type: ltval.String, Default: ltval.NewString("d")}},
		{"add-column/int32-default", &AddColumn{Table: "usage", Name: "c", Type: ltval.Int32, Default: ltval.NewInt32(math.MinInt32)}},
		{"add-column/double-default", &AddColumn{Table: "usage", Name: "r", Type: ltval.Double, Default: ltval.NewDouble(math.MaxFloat64)}},
		{"add-column/blob-default", &AddColumn{Table: "usage", Name: "b", Type: ltval.Blob, Default: ltval.NewBlob([]byte{})}},
		{"add-column/zero", &AddColumn{}},
		{"widen-column/zero", &WidenColumn{}},
		{"widen-column/count", &WidenColumn{Table: "usage", Name: "count"}},
		{"error/empty", &ErrorMsg{}},
		{"error/boom", &ErrorMsg{Message: "boom"}},
		{"error/long", &ErrorMsg{Message: `core: table "usage_99" does not exist; ` + long}},
		{"table-list/nil", &TableList{}},
		{"table-list/one-empty", &TableList{Names: []string{""}}},
		{"table-list/three", &TableList{Names: []string{"a", "usage", long}}},
		{"schema/ttl-zero", &SchemaResp{Schema: sc}},
		{"schema/ttl-min", &SchemaResp{Schema: sc, TTL: math.MinInt64}},
		{"scatter-query/zero", &ScatterQuery{}},
		{"scatter-query/all", &ScatterQuery{Prefix: "cust_", Query: core.NewQuery()}},
		{"scatter-query/every-type", &ScatterQuery{Prefix: "cust_", Query: box, MaxTables: math.MaxUint32}},
		{"scatter-query/huge-limit", &ScatterQuery{Prefix: "", Query: hugeLimit, MaxTables: 1}},
		{"agg-query/zero", &AggQuery{}},
		{"agg-query/no-aggs", &AggQuery{Prefix: "usage_", Spec: agg.Spec{BucketWidth: 60_000_000}}},
		{"agg-query/every-func", &AggQuery{Prefix: "usage_", Spec: spec, MinTs: math.MinInt64, MaxTs: math.MaxInt64,
			MaxGroups: math.MaxUint32, MaxTables: math.MaxUint32, WantPartials: true}},
		{"migrate-begin/zero", &MigrateBegin{}},
		{"migrate-begin/usage", &MigrateBegin{Table: "usage"}},
		{"migrate-manifest/no-tablets", &MigrateManifest{Schema: sc, TTL: 3600}},
		{"migrate-manifest/two", &MigrateManifest{Schema: sc, TTL: math.MinInt64, Tablets: []MigrateTabletInfo{tablet, {}}}},
		{"migrate-fetch/zero", &MigrateFetch{}},
		{"migrate-fetch/max", &MigrateFetch{Table: "usage", File: tablet.File, Offset: math.MaxInt64, MaxBytes: math.MaxUint32}},
		{"migrate-fetch/negative", &MigrateFetch{Table: "usage", File: tablet.File, Offset: math.MinInt64, MaxBytes: 1}},
		{"migrate-chunk/nil", &MigrateChunk{}},
		{"migrate-chunk/data", &MigrateChunk{Total: math.MaxInt64, Data: []byte{9, 8, 7, 0}}},
		{"migrate-end/zero", &MigrateEnd{}},
		{"migrate-end/usage", &MigrateEnd{Table: "usage"}},
		{"migrate-install/zero", &MigrateInstall{}},
		{"migrate-install/commit", &MigrateInstall{Table: "usage", File: tablet.File, Offset: math.MinInt64, Total: math.MaxInt64,
			RowCount: -1, MinTs: math.MinInt64, MaxTs: math.MaxInt64, Commit: true, Data: []byte{1, 2, 3}}},
		{"migrate-install/chunk", &MigrateInstall{Table: "usage", File: tablet.File, Offset: 128, Total: 131, Data: []byte{}}},
		{"migrate-table/zero", &MigrateTable{}},
		{"migrate-table/target", &MigrateTable{Table: "usage", TargetAddr: "127.0.0.1:9156"}},
		{"router-stats/zero", &RouterStatsResult{}},
		{"router-stats/full", &RouterStatsResult{Counters: stats, Shards: []RouterShardInfo{
			{Addr: "127.0.0.1:9155"}, {Addr: "", State: math.MaxUint8}, {Addr: long, State: 1}}}},
		{"stats/nil", &StatsResult{}},
		{"stats/three", &StatsResult{Stats: stats}},
	}
}

// TestMessagesGolden pins every cold message's payload and checks that
// each decodes; FuzzDecoders, seeded with the same payloads, checks that
// what decodes survives a re-encode.
func TestMessagesGolden(t *testing.T) {
	if ProtocolVersion != 2 {
		t.Errorf("ProtocolVersion = %d; the golden payloads are version 2's", ProtocolVersion)
	}
	var b strings.Builder
	for _, c := range goldenCases() {
		p := encode(c.m)
		fmt.Fprintf(&b, "%s %s\n", c.name, hex.EncodeToString(p))
		if err := decode(p, newLike(c.m)); err != nil {
			t.Errorf("%s: decode: %v", c.name, err)
		}
	}
	checkGolden(t, "messages.golden", b.String())
}

// TestEveryMessageIsPinned: every type with a fields method has a golden
// case, so a new message is pinned, fuzzed and prefix-checked from the
// day it is added.
func TestEveryMessageIsPinned(t *testing.T) {
	pinned := make(map[string]bool)
	for _, c := range goldenCases() {
		pinned[reflect.TypeOf(c.m).Elem().Name()] = true
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	declared := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "fields" || fd.Recv == nil {
				continue
			}
			declared++
			recv := fd.Recv.List[0].Type.(*ast.StarExpr).X.(*ast.Ident).Name
			if !pinned[recv] {
				t.Errorf("%s declares its fields but has no golden case", recv)
			}
		}
	}
	if declared != len(pinned) {
		t.Errorf("%d messages declare fields, golden cases cover %d types", declared, len(pinned))
	}
}
