package core

import (
	"errors"
	"fmt"
	"math"

	"littletable/internal/agg"
	"littletable/internal/ltval"
	"littletable/internal/schema"
)

// RollupRule declares one continuous-downsampling job on a table: rows
// are aggregated into (bucket × key-prefix) groups and materialized as
// rows of a destination table with its own, typically much longer, TTL —
// the paper's pattern of keeping raw data briefly and derived summaries
// for years (§2.2, §4.2). Rules are part of the table descriptor, so
// they survive restarts and run wherever the table lands.
type RollupRule struct {
	// Dest names the destination table. It is created on first run with
	// DestSchema and TTL if it does not exist.
	Dest string `json:"dest"`
	// BucketWidth is the rollup bucket in microseconds; required.
	BucketWidth int64 `json:"bucket_width_us"`
	// GroupCols is how many leading primary-key columns to group by.
	GroupCols int `json:"group_cols"`
	// Aggs are the aggregates each destination row materializes.
	Aggs []agg.Agg `json:"aggs"`
	// TTL is the destination table's time-to-live; 0 = keep forever.
	TTL int64 `json:"ttl_us"`
	// Lag is how far behind now a bucket must end before it is rolled
	// up. A bucket is processed once, when it is final; rows arriving
	// later than Lag after their bucket closed are not re-aggregated.
	Lag int64 `json:"lag_us"`
}

// Spec returns the aggregation spec the rule runs.
func (r RollupRule) Spec() agg.Spec {
	return agg.Spec{BucketWidth: r.BucketWidth, GroupCols: r.GroupCols, Aggs: r.Aggs}
}

// Validate checks the rule against the source table's schema.
func (r RollupRule) Validate(src *schema.Schema) error {
	if r.Dest == "" {
		return errors.New("core: rollup rule has no destination table")
	}
	if r.BucketWidth <= 0 {
		return fmt.Errorf("core: rollup bucket width %d must be positive", r.BucketWidth)
	}
	if r.Lag < 0 {
		return fmt.Errorf("core: negative rollup lag %d", r.Lag)
	}
	if err := agg.ValidateSpec(src, r.Spec()); err != nil {
		return err
	}
	// Building the destination schema catches output-name collisions
	// (two aggregates over the same column, a group column named like an
	// aggregate output).
	_, err := r.DestSchema(src)
	return err
}

// DestSchema derives the destination table's schema from the source's:
// the group-key columns, the bucket timestamp, then one column per
// aggregate named by OutputColumn. The primary key is (group cols, ts),
// so each (group, bucket) pair is exactly one row — which is what makes
// re-running a bucket idempotent under primary-key uniqueness.
func (r RollupRule) DestSchema(src *schema.Schema) (*schema.Schema, error) {
	var cols []schema.Column
	var key []string
	for i := 0; i < r.GroupCols && i < len(src.Key)-1; i++ {
		c := src.Columns[src.Key[i]]
		cols = append(cols, schema.Column{Name: c.Name, Type: c.Type})
		key = append(key, c.Name)
	}
	cols = append(cols, schema.Column{Name: schema.TimestampColumn, Type: ltval.Timestamp})
	key = append(key, schema.TimestampColumn)
	for _, a := range r.Aggs {
		cols = append(cols, schema.Column{Name: a.OutputColumn(), Type: aggOutputType(src, a)})
	}
	return schema.New(cols, key)
}

// aggOutputType is the column type an aggregate materializes as.
func aggOutputType(src *schema.Schema, a agg.Agg) ltval.Type {
	switch a.Func {
	case agg.Count:
		return ltval.Int64
	case agg.Avg, agg.Quantile:
		return ltval.Double
	}
	idx := src.ColumnIndex(a.Col)
	if idx < 0 {
		return ltval.Invalid // Validate rejects this before it matters
	}
	if a.Func == agg.Sum {
		if src.ColumnClass(idx) == schema.ClassFloat {
			return ltval.Double
		}
		return ltval.Int64 // int32 sums widen; saturation clamps the rest
	}
	return src.Columns[idx].Type // Min/Max keep the source type
}

// SetRollups replaces the table's rollup rules and persists them in the
// descriptor. Rules are validated against the current schema; duplicate
// destinations are rejected (two rules writing one table would fight
// over the watermark).
func (t *Table) SetRollups(rules []RollupRule) error {
	t.insertMu.Lock()
	defer t.insertMu.Unlock()
	return t.alter(func() (func(), error) {
		seen := make(map[string]bool, len(rules))
		for _, r := range rules {
			if err := r.Validate(t.sc); err != nil {
				return nil, err
			}
			if r.Dest == t.name {
				return nil, fmt.Errorf("core: rollup destination %q is the source table", r.Dest)
			}
			if seen[r.Dest] {
				return nil, fmt.Errorf("core: two rollup rules write destination %q", r.Dest)
			}
			seen[r.Dest] = true
		}
		old := t.rollups
		t.rollups = append([]RollupRule(nil), rules...)
		return func() { t.rollups = old }, nil
	})
}

// Rollups returns a copy of the table's rollup rules.
func (t *Table) Rollups() []RollupRule {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]RollupRule(nil), t.rollups...)
}

// RollupStep runs one rollup pass: it aggregates every source bucket
// that became final since the last pass and inserts the resulting rows
// into dest. now is the rollup clock (microseconds, same epoch as row
// timestamps); a bucket is final once it ends at or before now−Lag.
//
// Crash consistency (§4.1.2): the watermark is not stored anywhere — it
// is re-derived each pass from dest's own durable contents, probing for
// the latest destination timestamp. Dest rows are generated and inserted
// in ascending bucket order, so LittleTable's prefix-of-insertion-order
// durability means a crash leaves dest with every bucket before the
// watermark complete and at most the watermark bucket partial. The pass
// re-aggregates from the start of the watermark bucket; regenerated rows
// that already landed are skipped by primary-key uniqueness, missing
// groups are filled in, and no bucket is ever double-counted — the
// destination row for a (group, bucket) is written exactly once.
func RollupStep(src, dest *Table, rule RollupRule, now int64) (written int64, err error) {
	spec := rule.Spec()
	end := spec.BucketStart(now - rule.Lag) // buckets ending here or later are not final
	if end == math.MinInt64 {
		return 0, nil // degenerate clock: nothing can be final yet
	}
	start := int64(math.MinInt64)
	wm, ok, err := Watermark(dest, end-1)
	if err != nil {
		return 0, err
	}
	if ok {
		start = spec.BucketStart(wm)
	}
	if start >= end {
		return 0, nil // nothing newly final
	}
	acc, err := agg.NewAccumulator(src.Schema(), spec)
	if err != nil {
		return 0, err
	}
	it, err := src.Query(Query{MinTs: start, MaxTs: end - 1})
	if err != nil {
		return 0, err
	}
	for it.Next() {
		acc.Add(it.Row())
	}
	scanErr := it.Err()
	it.Close()
	if scanErr != nil {
		return 0, scanErr
	}
	destSc := dest.Schema()
	// Groups() sorts by (bucket, key), so the rows below are generated —
	// and inserted — in ascending bucket order, the order the watermark
	// recovery argument depends on.
	outs := agg.Finalize(spec, acc.Groups())
	rows := make([]schema.Row, 0, len(outs))
	for _, o := range outs {
		row := make(schema.Row, 0, len(destSc.Columns))
		row = append(row, o.Key...)
		row = append(row, ltval.NewTimestamp(o.Bucket))
		for i, v := range o.Values {
			if v.Type == ltval.Invalid {
				// Min/Max over a group whose values were all NaN: no
				// value to report; materialize the column's zero.
				v = ltval.Zero(destSc.Columns[len(o.Key)+1+i].Type)
			}
			row = append(row, v)
		}
		rows = append(rows, row)
	}
	written, err = InsertTolerant(dest, rows)
	if written > 0 {
		src.stats.RollupRuns.Add(1)
		src.stats.RollupRowsWritten.Add(written)
	}
	return written, err
}

// Watermark finds the latest destination timestamp at or below limit,
// probing exponentially widening recent windows before falling back to a
// full scan — on a steadily rolled-up table the newest row is moments
// below limit, so the first narrow probe usually wins and only touches
// tablets overlapping the window (§4.1.2's recovery idiom). RollupStep
// and the external aggregators of internal/apps/agg both resume from it.
func Watermark(dest *Table, limit int64) (int64, bool, error) {
	for span := int64(1_000_000); span > 0 && span < 1<<60; span *= 16 { // 1s in µs, widening
		lo := limit - span
		if lo > limit { // subtraction wrapped below MinInt64
			break
		}
		ts, ok, err := maxTsInRange(dest, lo, limit)
		if err != nil || ok {
			return ts, ok, err
		}
	}
	return maxTsInRange(dest, math.MinInt64, limit)
}

// maxTsInRange scans dest rows with min ≤ ts ≤ max and returns the
// largest timestamp seen.
func maxTsInRange(dest *Table, min, max int64) (int64, bool, error) {
	it, err := dest.Query(Query{MinTs: min, MaxTs: max})
	if err != nil {
		return 0, false, err
	}
	defer it.Close()
	sc := dest.Schema()
	var best int64
	found := false
	for it.Next() {
		if ts := sc.Ts(it.Row()); !found || ts > best {
			best, found = ts, true
		}
	}
	return best, found, it.Err()
}

// InsertTolerant inserts rows in order, skipping rows whose primary key
// already exists — the idempotent-replay half of the watermark recovery.
// The batch path is tried first; on a duplicate it degrades to per-row
// inserts, preserving order so the prefix-durability argument holds.
func InsertTolerant(dest *Table, rows []schema.Row) (int64, error) {
	if len(rows) == 0 {
		return 0, nil
	}
	err := dest.Insert(rows)
	if err == nil {
		return int64(len(rows)), nil
	}
	if !errors.Is(err, ErrDuplicateKey) {
		return 0, err
	}
	var written int64
	for _, row := range rows {
		err := dest.Insert([]schema.Row{row})
		switch {
		case err == nil:
			written++
		case errors.Is(err, ErrDuplicateKey):
			// Already durable from the pass the crash interrupted.
		default:
			return written, err
		}
	}
	return written, nil
}
