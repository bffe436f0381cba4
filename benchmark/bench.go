package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"littletable/internal/agg"
	"littletable/internal/client"
	"littletable/internal/core"
	"littletable/internal/ltval"
	"littletable/internal/schema"
	"littletable/internal/wire"
)

// tableState is one table of the workload and how many generator rows it
// has been given so far — the oracle's only state.
type tableState struct {
	idx   int
	name  string
	ct    *client.Table
	core  *core.Table
	shard int
	n     int64
}

// bench drives one workload instance against one env. Every client call
// goes through an op* method, which times the call, checks the result
// against the generator, and counts attempts and failures.
type bench struct {
	ctx  context.Context
	spec *workloadSpec
	gen  generator
	env  *env
	ph   *phase
	tr   *tracer
	rng  *rand.Rand
	sc   *schema.Schema

	tables []*tableState

	attempted, failed int64
	firstFailure      string
	userBytes         int64 // generator-computed bytes of every row inserted

	rowsIn, rowsOut, rowsFolded int64 // measured phase only (reset by beginMeasured)
	aggGroups                   int64 // groups returned by measured AggQuery ops
	aggOps                      int64

	batchRows []schema.Row  // reused insert batch
	batchVals []ltval.Value // its backing cells
	rowBuf    []schema.Row  // reused query drain buffer
	aggMemo   map[[2]int64][]agg.Output
	rp        *replayer // traced run only
	epochs    int       // length of the measured phase
	kindSeen  map[string]int
	tracing   bool     // the current epoch is a traced one
	before    statsSum // counters at the start of the measured phase
	order     []int    // seed-dependent visiting order (scan groups, agg windows)
}

// fail counts a failed or mis-verified operation.
func (b *bench) fail(format string, args ...interface{}) {
	b.failed++
	if b.firstFailure == "" {
		b.firstFailure = fmt.Sprintf(format, args...)
	}
}

// opSpan times a call into the system and brackets it with a root trace span.
func (b *bench) opSpan(name string, call func()) (time.Duration, int64) {
	id := b.tr.beginOp()
	start := time.Now()
	call()
	end := time.Now()
	b.tr.endOp(id, name, start, end)
	return end.Sub(start), id
}

// opInsert sends the table's next n generator rows as one InsertNow batch.
func (b *bench) opInsert(t *tableState, n int64) {
	if int64(cap(b.batchRows)) < n {
		b.batchRows = make([]schema.Row, n)
		b.batchVals = make([]ltval.Value, 6*n)
	}
	rows := b.batchRows[:n]
	var user int64
	for j := int64(0); j < n; j++ {
		c := b.gen.at(t.idx, t.n+j)
		rows[j] = b.batchVals[6*j : 6*j+6 : 6*j+6]
		c.fill(rows[j])
		user += c.userBytes()
	}
	// The batch arrives when its last row has been produced: rows come in
	// time order and the fake clock follows them.
	b.env.clk.Set(b.gen.ts(t.n + n))
	var err error
	d, id := b.opSpan("client.insert", func() { err = t.ct.InsertNow(rows) })
	b.attempted++
	b.ph.record("insert", n, d, 0)
	if err != nil {
		b.fail("insert %s rows [%d,%d): %v", t.name, t.n, t.n+n, err)
		return
	}
	b.sample(sampledOp{kind: "insert", id: id, ns: d, table: t, from: t.n, n: n})
	t.n += n
	b.userBytes += user
	b.rowsIn += n
}

func keyPrefix(d int64) []ltval.Value {
	return []ltval.Value{ltval.NewInt64(d / devicesPerNetwork), ltval.NewInt64(d % devicesPerNetwork)}
}

func (s scanSpec) clientQuery() client.Query {
	q := client.NewQuery()
	q.Lower, q.Upper = keyPrefix(s.d0), keyPrefix(s.d1)
	q.MinTs, q.MaxTs = s.minTs, s.maxTs
	q.Descending = s.desc
	q.Limit = int(s.limit)
	return q
}

// opScan runs one key-range × time-window query, drains it through
// client.Rows, and checks row count and order-sensitive checksum.
func (b *bench) opScan(t *tableState, s scanSpec) {
	s.table, s.n = t.idx, t.n
	q := s.clientQuery()
	buf := b.rowBuf[:0]
	var first time.Duration
	var err error
	d, id := b.opSpan("client.query", func() {
		t0 := time.Now()
		rows := t.ct.QueryCtx(b.ctx, q)
		for rows.Next() {
			if len(buf) == 0 {
				first = time.Since(t0)
			}
			buf = append(buf, rows.Row())
		}
		err = rows.Err()
	})
	b.rowBuf = buf
	b.attempted++
	b.ph.record("query", int64(len(buf)), d, first)
	if err != nil {
		b.fail("query %s %+v: %v", t.name, s, err)
		return
	}
	wantN, wantSum := b.gen.expectScan(s)
	var sum uint64
	for _, r := range buf {
		sum = foldSum(sum, hashRow(r))
	}
	if int64(len(buf)) != wantN || sum != wantSum {
		b.fail("query %s %+v: got %d rows sum %x, want %d rows sum %x", t.name, s, len(buf), sum, wantN, wantSum)
		return
	}
	b.rowsOut += wantN
	b.sample(sampledOp{kind: "query", id: id, ns: d, table: t, scan: s, rows: wantN})
}

// opLatest fetches the latest row of global device d (§3.4.5).
func (b *bench) opLatest(t *tableState, d int64) {
	var row schema.Row
	var found bool
	var err error
	dur, id := b.opSpan("client.latest", func() { row, found, err = t.ct.LatestRowCtx(b.ctx, keyPrefix(d)) })
	b.attempted++
	b.ph.record("latest", 1, dur, 0)
	if err != nil {
		b.fail("latest %s device %d: %v", t.name, d, err)
		return
	}
	k := ceilDiv(t.n-d, numDevices) - 1
	if k < 0 {
		if found {
			b.fail("latest %s device %d: found a row in an empty range", t.name, d)
		}
		return
	}
	if want := b.gen.at(t.idx, k*numDevices+d); !found || hashRow(row) != want.hash() {
		b.fail("latest %s device %d: got %v (found=%v), want %+v", t.name, d, row, found, want)
		return
	}
	b.rowsOut++
	b.sample(sampledOp{kind: "latest", id: id, ns: dur, table: t, dev: d})
}

// aggSpec is the one aggregation shape the suite issues: time buckets
// grouped by leading key columns, the six aggregate kinds.
func aggSpec(groupCols int, bucket int64) agg.Spec {
	return agg.Spec{
		BucketWidth: bucket,
		GroupCols:   groupCols,
		Aggs: []agg.Agg{
			{Func: agg.Count},
			{Func: agg.Sum, Col: "bytes"},
			{Func: agg.Min, Col: "rate"},
			{Func: agg.Max, Col: "rate"},
			{Func: agg.Avg, Col: "rate"},
			{Func: agg.Quantile, Col: "bytes", Q: 0.95},
		},
	}
}

// opAgg issues one AggQuery over every table with the prefix and the
// window [minTs, maxTs]. The folded-row count is always checked in closed
// form; full compares the finalized groups with a client-side agg fold
// over regenerated rows (memoised when memo is set — static tables only).
func (b *bench) opAgg(prefix string, spec agg.Spec, minTs, maxTs int64, full, memo bool) {
	var res *wire.AggResult
	var err error
	d, id := b.opSpan("client.agg", func() {
		res, err = b.env.cl.AggQuery(b.ctx, &wire.AggQuery{Prefix: prefix, Spec: spec, MinTs: minTs, MaxTs: maxTs})
	})
	b.attempted++
	var folded int64
	for _, t := range b.tables {
		iLo, iHi := b.gen.windowRows(t.n, minTs, maxTs)
		if iHi >= iLo {
			folded += iHi - iLo + 1
		}
	}
	b.ph.record("agg", folded, d, 0)
	if err != nil {
		b.fail("agg [%d,%d]: %v", minTs, maxTs, err)
		return
	}
	if res.RowsFolded != folded || res.Truncated {
		b.fail("agg [%d,%d]: folded %d rows (truncated=%v), want %d", minTs, maxTs, res.RowsFolded, res.Truncated, folded)
		return
	}
	if full {
		got := agg.Finalize(spec, res.Groups)
		want, ok := b.aggMemo[[2]int64{minTs, maxTs}] // only ever filled when memo
		if !ok {
			want = b.expectAgg(spec, minTs, maxTs)
			if memo {
				b.aggMemo[[2]int64{minTs, maxTs}] = want
			}
		}
		if msg := compareOutputs(got, want); msg != "" {
			b.fail("agg [%d,%d]: %s", minTs, maxTs, msg)
			return
		}
	}
	b.rowsFolded += folded
	b.aggGroups += int64(len(res.Groups))
	b.aggOps++
	b.sample(sampledOp{kind: "agg", id: id, ns: d, minTs: minTs, maxTs: maxTs, rows: folded, spec: spec})
}

// expectAgg folds the generator's rows of the window, table by table in
// name order like the server, into finalized groups.
func (b *bench) expectAgg(spec agg.Spec, minTs, maxTs int64) []agg.Output {
	tables := append([]*tableState(nil), b.tables...)
	sort.Slice(tables, func(i, j int) bool { return tables[i].name < tables[j].name })
	var merged []agg.Group
	row := make(schema.Row, 6)
	for _, t := range tables {
		acc, err := agg.NewAccumulator(b.sc, spec)
		if err != nil {
			return nil
		}
		iLo, iHi := b.gen.windowRows(t.n, minTs, maxTs)
		for i := iLo; i <= iHi; i++ {
			b.gen.at(t.idx, i).fill(row)
			acc.Add(row)
		}
		merged = agg.MergeGroups(spec, merged, acc.Groups())
	}
	return agg.Finalize(spec, merged)
}

// compareOutputs reports the first difference between two finalized
// aggregations, or "". Integers and keys must match exactly; doubles to
// 1e-9 relative, because float sums may be reassociated across tables.
func compareOutputs(got, want []agg.Output) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d groups, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Bucket != w.Bucket || schema.CompareKeySlices(g.Key, w.Key) != 0 || len(g.Values) != len(w.Values) {
			return fmt.Sprintf("group %d is (%d,%v), want (%d,%v)", i, g.Bucket, g.Key, w.Bucket, w.Key)
		}
		for j := range g.Values {
			if !valuesClose(g.Values[j], w.Values[j]) {
				return fmt.Sprintf("group %d (%d,%v) aggregate %d is %v, want %v", i, g.Bucket, g.Key, j, g.Values[j], w.Values[j])
			}
		}
	}
	return ""
}

func valuesClose(a, b ltval.Value) bool {
	if a.Type != b.Type {
		return false
	}
	if a.Type != ltval.Double {
		return a.Compare(b) == 0
	}
	if math.IsNaN(a.Float) || math.IsNaN(b.Float) {
		return math.IsNaN(a.Float) && math.IsNaN(b.Float)
	}
	return math.Abs(a.Float-b.Float) <= 1e-9*math.Max(math.Abs(a.Float), math.Abs(b.Float))
}

// tick runs every table's maintenance inline, inside the epoch's timed
// work: seal → flush → merge happen at the same row counts on every run
// and their cost is in the numbers.
func (b *bench) tick() error {
	var err error
	d, _ := b.opSpan("core.tick", func() {
		for _, t := range b.tables {
			if err = t.core.Tick(); err != nil {
				return
			}
		}
	})
	b.ph.record("tick", 0, d, 0)
	return err
}
