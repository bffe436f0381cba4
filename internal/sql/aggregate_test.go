package sql

import (
	"context"
	"math"
	"net"
	"slices"
	"strings"
	"testing"

	"littletable/internal/agg"
	"littletable/internal/client"
	"littletable/internal/clock"
	"littletable/internal/core"
	"littletable/internal/ltval"
	"littletable/internal/schema"
	"littletable/internal/server"
	"littletable/internal/wire"
)

// insertRows writes rows straight through the backend, for values (NaN,
// int64 extremes) that SQL literals cannot spell.
func insertRows(t *testing.T, e *Engine, table string, rows ...schema.Row) {
	t.Helper()
	tab, err := e.b.OpenTable(table)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(rows); err != nil {
		t.Fatal(err)
	}
}

func TestSumSaturatesOnOverflow(t *testing.T) {
	e, clk := newEngine(t)
	mustExec(t, e, "CREATE TABLE m (dev int64, ts timestamp, v int64, PRIMARY KEY (dev, ts))")
	now := clk.Now()
	insertRows(t, e, "m",
		schema.Row{ltval.NewInt64(1), ltval.NewTimestamp(now - 1), ltval.NewInt64(math.MaxInt64 - 5)},
		schema.Row{ltval.NewInt64(1), ltval.NewTimestamp(now), ltval.NewInt64(10)},
	)
	res := mustExec(t, e, "SELECT dev, SUM(v) FROM m GROUP BY dev")
	if len(res.Rows) != 1 || res.Rows[0][1].Int != math.MaxInt64 {
		t.Fatalf("SUM over an overflowing int64 column: %v, want the clamp %d", res.Rows, int64(math.MaxInt64))
	}
}

func TestSumOverStringColumnFails(t *testing.T) {
	e, clk := newEngine(t)
	mustExec(t, e, "CREATE TABLE s (dev int64, ts timestamp, name string, PRIMARY KEY (dev, ts))")
	mustExec(t, e, sprintf("INSERT INTO s VALUES (1, %d, 'a')", clk.Now()))
	for _, q := range []string{"SELECT SUM(name) FROM s", "SELECT AVG(name) FROM s"} {
		res, err := e.Exec(q)
		if err == nil || !strings.Contains(err.Error(), "non-numeric") {
			t.Errorf("%s: %v, %v; want a non-numeric column error", q, res, err)
		}
	}
	// MIN and MAX order strings.
	res := mustExec(t, e, "SELECT MIN(name), MAX(name) FROM s")
	if string(res.Rows[0][0].Bytes) != "a" || string(res.Rows[0][1].Bytes) != "a" {
		t.Fatalf("MIN/MAX over a string column: %v", res.Rows)
	}
}

func TestNaNSkippedBySumAndAvg(t *testing.T) {
	e, clk := newEngine(t)
	mustExec(t, e, "CREATE TABLE f (dev int64, ts timestamp, x double, PRIMARY KEY (dev, ts))")
	now := clk.Now()
	row := func(dev, ts int64, x float64) schema.Row {
		return schema.Row{ltval.NewInt64(dev), ltval.NewTimestamp(ts), ltval.NewDouble(x)}
	}
	insertRows(t, e, "f", row(1, now-2, 1.5), row(1, now-1, math.NaN()), row(1, now, 2.5), row(2, now, math.NaN()))
	res := mustExec(t, e, "SELECT dev, COUNT(*), SUM(x), AVG(x), MIN(x), MAX(x) FROM f GROUP BY dev")
	if len(res.Rows) != 2 {
		t.Fatalf("groups: %v", res.Rows)
	}
	r := res.Rows[0]
	if r[1].Int != 3 || r[2].Float != 4 || r[3].Float != 2 || r[4].Float != 1.5 || r[5].Float != 2.5 {
		t.Errorf("dev 1: %v, want COUNT 3 (rows, NaN included), SUM 4, AVG 2, MIN 1.5, MAX 2.5", r)
	}
	// A group whose values are all NaN: MIN and MAX report the column's zero.
	if r := res.Rows[1]; r[1].Int != 1 || r[4].Type != ltval.Double || r[4].Float != 0 || r[5].Float != 0 {
		t.Errorf("dev 2: %v, want COUNT 1 and MIN/MAX 0.0", r)
	}
}

// TestNaNOrdersLastAndEqualsOnlyItself pins SQL's value order over
// doubles: a NaN sorts after every number and equals no number, also when
// the other side of = is an int64 column.
func TestNaNOrdersLastAndEqualsOnlyItself(t *testing.T) {
	e, clk := newEngine(t)
	mustExec(t, e, "CREATE TABLE f (dev int64, ts timestamp, n int64, x double, PRIMARY KEY (dev, ts))")
	now := clk.Now()
	nan := math.NaN()
	for i, nx := range [][2]float64{{3, nan}, {3, 3}, {7, 1}, {5, nan}, {1, 0.5}} {
		insertRows(t, e, "f", schema.Row{ltval.NewInt64(int64(i + 1)), ltval.NewTimestamp(now),
			ltval.NewInt64(int64(nx[0])), ltval.NewDouble(nx[1])})
	}
	var devs []int64
	for _, r := range mustExec(t, e, "SELECT dev FROM f WHERE n = x").Rows {
		devs = append(devs, r[0].Int)
	}
	if !slices.Equal(devs, []int64{2}) {
		t.Errorf("WHERE n = x: devs %v, want [2]", devs)
	}
	var xs []string
	for _, r := range mustExec(t, e, "SELECT x FROM f ORDER BY x").Rows {
		xs = append(xs, r[0].String())
	}
	if want := []string{"0.5", "1", "3", "NaN", "NaN"}; !slices.Equal(xs, want) {
		t.Errorf("ORDER BY x: %v, want %v", xs, want)
	}
}

// TestIntDoubleCompareIsExact compares an int64 column with a double
// column where converting the integer to a double would round it: 2^53+1,
// MaxInt64 and −(2^53+1) have no double of their own.
func TestIntDoubleCompareIsExact(t *testing.T) {
	e, clk := newEngine(t)
	mustExec(t, e, "CREATE TABLE f (dev int64, ts timestamp, n int64, x double, PRIMARY KEY (dev, ts))")
	now := clk.Now()
	for i, nx := range []struct {
		n int64
		x float64
	}{
		{1<<53 + 1, 1 << 53},
		{1 << 53, 1 << 53},
		{math.MaxInt64, 1 << 63},
		{-1, -0.5},
		{0, 0},
		{3, math.NaN()},
		{-(1<<53 + 1), -(1 << 53)},
		{0, math.Copysign(0, -1)},
	} {
		insertRows(t, e, "f", schema.Row{ltval.NewInt64(int64(i + 1)), ltval.NewTimestamp(now),
			ltval.NewInt64(nx.n), ltval.NewDouble(nx.x)})
	}
	for _, c := range []struct {
		where string
		want  []int64
	}{
		{"n = x", []int64{2, 5}},
		{"n > x", []int64{1, 8}},
		{"n < x", []int64{3, 4, 6, 7}},
		{"x < n", []int64{1, 8}},
	} {
		var devs []int64
		for _, r := range mustExec(t, e, "SELECT dev FROM f WHERE "+c.where).Rows {
			devs = append(devs, r[0].Int)
		}
		if !slices.Equal(devs, c.want) {
			t.Errorf("WHERE %s: devs %v, want %v", c.where, devs, c.want)
		}
	}
}

// TestCompareIntDoubleEdges pins compareValues at the edges of the exact
// int-against-double order: the int64 range's ends, infinities, both
// NaN signs, both zeros and fractions either side of an integer.
func TestCompareIntDoubleEdges(t *testing.T) {
	negNaN := math.Copysign(math.NaN(), -1)
	for _, c := range []struct {
		i    int64
		f    float64
		want int
	}{
		{math.MinInt64, -0x1p63, 0},
		{math.MinInt64, math.Nextafter(-0x1p63, 0), -1},
		{math.MinInt64, math.Inf(-1), 1},
		{math.MaxInt64, 0x1p63, -1},
		{math.MaxInt64, math.Inf(1), -1},
		{math.MaxInt64, math.NaN(), -1},
		{math.MinInt64, negNaN, 1},
		{0, 0, 0},
		{0, math.Copysign(0, -1), 1},
		{-1, -1.5, 1},
		{-1, -0.5, -1},
		{2, 2.000000000000001, -1},
		{1<<53 + 1, 1 << 53, 1},
	} {
		got := compareValues(ltval.NewInt64(c.i), ltval.NewDouble(c.f))
		back := compareValues(ltval.NewDouble(c.f), ltval.NewInt64(c.i))
		if got != c.want || back != -c.want {
			t.Errorf("compare(%d, %v) = %d, reversed %d; want %d", c.i, c.f, got, back, c.want)
		}
	}
}

func TestGroupByOrderByDescending(t *testing.T) {
	e, clk := newEngine(t)
	setupUsage(t, e, clk)
	res := mustExec(t, e, "SELECT network, COUNT(*) FROM usage GROUP BY network ORDER BY network DESC")
	if len(res.Rows) != 2 || res.Rows[0][0].Int != 2 || res.Rows[1][0].Int != 1 {
		t.Fatalf("GROUP BY network ORDER BY network DESC: %v, want network 2 then 1", res.Rows)
	}
}

// TestSQLAggregateMatchesAggQuery runs one GROUP BY in-process through
// SQL and again as an AggQuery through a client: both fold with
// internal/agg, so every value must be identical, the edge cases where
// folds can disagree (NaN, int64 overflow) included.
func TestSQLAggregateMatchesAggQuery(t *testing.T) {
	clk := clock.NewFake(1_782_018_420 * clock.Second)
	s, err := server.New(server.Options{
		Root: t.TempDir(),
		Core: core.Options{Clock: clk},
		Logf: func(string, ...interface{}) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(lis)
	c, err := client.Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	e := NewEngine(&ServerBackend{S: s})
	setupUsage(t, e, clk)
	now := clk.Now()
	insertRows(t, e, "usage",
		schema.Row{ltval.NewInt64(1), ltval.NewInt64(9), ltval.NewTimestamp(now), ltval.NewInt64(7), ltval.NewDouble(math.NaN())},
		schema.Row{ltval.NewInt64(2), ltval.NewInt64(9), ltval.NewTimestamp(now), ltval.NewInt64(math.MaxInt64 - 3), ltval.NewDouble(0.25)},
	)
	res := mustExec(t, e,
		"SELECT network, COUNT(*), SUM(bytes), MIN(rate), MAX(rate), AVG(rate) FROM usage GROUP BY network")

	spec := agg.Spec{GroupCols: 1, Aggs: []agg.Agg{
		{Func: agg.Count}, {Func: agg.Sum, Col: "bytes"},
		{Func: agg.Min, Col: "rate"}, {Func: agg.Max, Col: "rate"}, {Func: agg.Avg, Col: "rate"},
	}}
	ar, err := c.AggQuery(context.Background(), &wire.AggQuery{Prefix: "usage", Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	outs := agg.Finalize(spec, ar.Groups)
	if len(res.Rows) != 2 || len(outs) != len(res.Rows) {
		t.Fatalf("%d SQL groups, %d AggQuery groups", len(res.Rows), len(outs))
	}
	for i, o := range outs {
		want := append([]ltval.Value{o.Key[0]}, o.Values...)
		for j, v := range want {
			got := res.Rows[i][j]
			// Byte-identical encodings: Compare would call two NaNs equal.
			if got.Type != v.Type || string(got.Append(nil)) != string(v.Append(nil)) {
				t.Errorf("group %d column %s: SQL %v, AggQuery %v", i, res.Columns[j], got, v)
			}
		}
	}
}

// TestGlobalAggregateOverEmptyTimeBox: an inverted time box selects no
// rows, as an empty key selection does, and a global aggregate over
// either answers one row; a grouped one answers none.
func TestGlobalAggregateOverEmptyTimeBox(t *testing.T) {
	e, clk := newEngine(t)
	setupUsage(t, e, clk)
	const items = "COUNT(*), SUM(bytes), MIN(rate), MAX(bytes), AVG(rate)"
	for _, where := range []string{"network = 99", "ts > NOW() AND ts < NOW() - 1 h"} {
		res := mustExec(t, e, "SELECT "+items+" FROM usage WHERE "+where)
		want := []ltval.Value{ltval.NewInt64(0), ltval.NewInt64(0), ltval.NewInt64(0), ltval.NewInt64(0), ltval.NewDouble(0)}
		if len(res.Columns) != 5 || len(res.Rows) != 1 || !slices.EqualFunc(res.Rows[0], want, func(a, b ltval.Value) bool { return a.Compare(b) == 0 && a.Type == b.Type }) {
			t.Errorf("WHERE %s: columns %v, rows %v; want one row %v", where, res.Columns, res.Rows, want)
		}
		res = mustExec(t, e, "SELECT network, COUNT(*) FROM usage WHERE "+where+" GROUP BY network")
		if len(res.Columns) != 2 || len(res.Rows) != 0 {
			t.Errorf("WHERE %s GROUP BY network: columns %v, rows %v; want no rows", where, res.Columns, res.Rows)
		}
	}
}
