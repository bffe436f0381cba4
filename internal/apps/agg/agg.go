// Package agg implements the background aggregators of §4.1.2: separate
// processes that read LittleTable source tables and write substantially
// smaller derived tables — per-network rollups over ten-minute periods,
// usage joined against PostgreSQL-style dimension data (device tags), and
// HyperLogLog sketches of distinct clients. Computing aggregates outside
// the database let Meraki iterate on aggregation schemes quickly; this
// package reproduces the three kinds the paper describes.
package agg

import (
	"fmt"
	"sort"

	"littletable/internal/clock"
	"littletable/internal/configdb"
	"littletable/internal/core"
	"littletable/internal/hll"
	"littletable/internal/ltval"
	"littletable/internal/schema"
)

// DefaultPeriod is the rollup bucket: "a new table of cumulative bytes
// transferred per network over ten-minute periods" (§4.1.2).
const DefaultPeriod = 10 * clock.Minute

// DefaultPersistenceLag is the paper's pragmatic durability assumption:
// "aggregators simply assume that data written more than 20 minutes in the
// past has reached disk" (§4.1.2). Aggregation never processes a period
// newer than now minus this lag.
const DefaultPersistenceLag = 20 * clock.Minute

// RollupSchema returns the per-network rollup destination schema, keyed
// (network, ts) with ts = period start.
func RollupSchema() *schema.Schema {
	return schema.MustNew([]schema.Column{
		{Name: "network", Type: ltval.Int64},
		{Name: "ts", Type: ltval.Timestamp},
		{Name: "bytes", Type: ltval.Int64}, // cumulative bytes in the period
		{Name: "samples", Type: ltval.Int64},
	}, []string{"network", "ts"})
}

// TagSchema returns the per-tag usage destination schema (the §4.1.2
// example: a school tagging access points "classrooms", "playing-fields").
func TagSchema() *schema.Schema {
	return schema.MustNew([]schema.Column{
		{Name: "network", Type: ltval.Int64},
		{Name: "tag", Type: ltval.String},
		{Name: "ts", Type: ltval.Timestamp},
		{Name: "bytes", Type: ltval.Int64},
	}, []string{"network", "tag", "ts"})
}

// HLLSchema returns the distinct-clients destination schema: one
// HyperLogLog sketch per network per period, stored as a blob.
func HLLSchema() *schema.Schema {
	return schema.MustNew([]schema.Column{
		{Name: "network", Type: ltval.Int64},
		{Name: "ts", Type: ltval.Timestamp},
		{Name: "sketch", Type: ltval.Blob},
	}, []string{"network", "ts"})
}

// periodic is the period loop the three aggregators share (§4.1.2): find
// where to resume in the destination, then fold each complete period of
// source rows into destination rows. Each aggregator supplies only its
// fold.
type periodic struct {
	src, dst *core.Table
	clk      clock.Clock
	width    int64 // the aggregation period's length

	// Horizon bounds how far back the first run looks.
	Horizon int64

	next int64 // start of the next period to process; 0 = not recovered

	RowsWritten int64
}

func newPeriodic(src, dst *core.Table, clk clock.Clock, width, horizon int64) periodic {
	return periodic{src: src, dst: dst, clk: clk, width: width, Horizon: horizon}
}

// A fold turns one period's source rows into destination rows: add sees
// each source row, and rows returns the period's destination rows in
// ascending key order, so every insert takes the largest-key uniqueness
// fast path (§3.4.4: "aggregators, which by design insert the rows of
// each aggregation period in ascending primary key order").
type fold struct {
	add  func(row schema.Row)
	rows func(start int64) []schema.Row
}

// resume determines where to resume after a restart or LittleTable crash
// (§4.1.2): because LittleTable flushes rows in insertion order, finding
// any row from an aggregation period in the destination means all prior
// periods completed; re-process from that period forward. The probe is
// core.Watermark, the one RollupStep re-derives its position from.
func (p *periodic) resume() error {
	ts, found, err := core.Watermark(p.dst, p.clk.Now())
	if err != nil {
		return err
	}
	if !found || ts < p.Horizon {
		ts = p.Horizon
	}
	p.next = floorTo(ts, p.width)
	return nil
}

// run folds every complete period that ends at least lag before now,
// starting each with newFold; what names the aggregator in errors. It
// returns how many periods it processed.
func (p *periodic) run(lag int64, what string, newFold func() fold) (int64, error) {
	if p.next == 0 {
		if err := p.resume(); err != nil {
			return 0, err
		}
	}
	limit := floorTo(p.clk.Now()-lag, p.width)
	var n int64
	for ; p.next+p.width <= limit; p.next += p.width {
		if err := p.period(p.next, what, newFold()); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// period folds the source rows of [start, start+width) and inserts the
// result; core.InsertTolerant skips the rows a re-processed period
// already wrote.
func (p *periodic) period(start int64, what string, f fold) error {
	q := core.NewQuery()
	q.MinTs, q.MaxTs = start, start+p.width-1
	it, err := p.src.Query(q)
	if err != nil {
		return err
	}
	defer it.Close()
	for it.Next() {
		f.add(it.Row())
	}
	if err := it.Err(); err != nil {
		return err
	}
	rows := f.rows(start)
	if len(rows) == 0 {
		return nil
	}
	n, err := core.InsertTolerant(p.dst, rows)
	if err != nil {
		return fmt.Errorf("agg: %s insert for period %d: %w", what, start, err)
	}
	p.RowsWritten += n
	return nil
}

func floorTo(ts, unit int64) int64 {
	q := ts / unit
	if ts%unit < 0 {
		q--
	}
	return q * unit
}

// sortedNets returns m's networks in ascending order.
func sortedNets[V any](m map[int64]V) []int64 {
	nets := make([]int64, 0, len(m))
	for n := range m {
		nets = append(nets, n)
	}
	sort.Slice(nets, func(i, j int) bool { return nets[i] < nets[j] })
	return nets
}

// usageBytes estimates a usage row's bytes: rate (bytes/s) × sample
// interval (s).
func usageBytes(row schema.Row) int64 {
	secs := float64(row[2].Int-row[3].Int) / float64(clock.Second)
	return int64(row[5].Float * secs)
}

// Rollup aggregates a usage source table (usage.Schema layout) into a
// per-network rollup table.
type Rollup struct {
	periodic

	// UseFlush removes the persistence-lag assumption by issuing the
	// explicit flush command §4.1.2 proposes (Table.FlushBefore) before
	// each run.
	UseFlush bool

	PeriodsProcessed int64
}

// NewRollup returns a rollup aggregator from src (usage schema) to dst
// (RollupSchema).
func NewRollup(src, dst *core.Table, clk clock.Clock, horizon int64) *Rollup {
	return &Rollup{periodic: newPeriodic(src, dst, clk, DefaultPeriod, horizon)}
}

// Recover determines where to resume after a restart or LittleTable crash
// (§4.1.2); Run calls it on its first pass.
func (r *Rollup) Recover() error { return r.resume() }

// Run processes all complete periods older than the persistence lag (or
// every complete period, after an explicit flush, with UseFlush).
func (r *Rollup) Run() error {
	lag := DefaultPersistenceLag
	if r.UseFlush {
		if err := r.src.FlushBefore(floorTo(r.clk.Now(), r.width)); err != nil {
			return err
		}
		lag = 0
	}
	n, err := r.run(lag, "rollup", r.fold)
	r.PeriodsProcessed += n
	return err
}

// fold sums each network's bytes and samples over one period.
func (r *Rollup) fold() fold {
	type acc struct {
		bytes   int64
		samples int64
	}
	byNet := map[int64]*acc{}
	return fold{
		add: func(row schema.Row) {
			a := byNet[row[0].Int]
			if a == nil {
				a = &acc{}
				byNet[row[0].Int] = a
			}
			a.bytes += usageBytes(row)
			a.samples++
		},
		rows: func(start int64) []schema.Row {
			rows := make([]schema.Row, 0, len(byNet))
			for _, n := range sortedNets(byNet) {
				a := byNet[n]
				rows = append(rows, schema.Row{
					ltval.NewInt64(n),
					ltval.NewTimestamp(start),
					ltval.NewInt64(a.bytes),
					ltval.NewInt64(a.samples),
				})
			}
			return rows
		},
	}
}

// Next exposes the resume position for tests.
func (r *Rollup) Next() int64 { return r.next }

// TagAggregator joins usage source rows with configdb device tags,
// producing per-(network, tag) usage — the dimension-table join that
// computing aggregates outside the database made possible (§4.1.2).
type TagAggregator struct {
	periodic
	cfg *configdb.DB
}

// NewTagAggregator returns a tag aggregator from src (usage schema) to dst
// (TagSchema).
func NewTagAggregator(src, dst *core.Table, cfg *configdb.DB, clk clock.Clock, horizon int64) *TagAggregator {
	return &TagAggregator{periodic: newPeriodic(src, dst, clk, DefaultPeriod, horizon), cfg: cfg}
}

// Run processes all complete periods older than the persistence lag.
func (t *TagAggregator) Run() error {
	_, err := t.run(DefaultPersistenceLag, "tag", t.fold)
	return err
}

// fold sums bytes per (network, tag) over one period; tags come from the
// dimension snapshot.
func (t *TagAggregator) fold() fold {
	type key struct {
		net int64
		tag string
	}
	sums := map[key]int64{}
	tagCache := map[int64]map[int64][]string{} // network → device → tags
	return fold{
		add: func(row schema.Row) {
			net, dev := row[0].Int, row[1].Int
			tags, ok := tagCache[net]
			if !ok {
				tags = t.cfg.TagsByDevice(net)
				tagCache[net] = tags
			}
			bytes := usageBytes(row)
			for _, tag := range tags[dev] {
				sums[key{net, tag}] += bytes
			}
		},
		rows: func(start int64) []schema.Row {
			keys := make([]key, 0, len(sums))
			for k := range sums {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool {
				if keys[i].net != keys[j].net {
					return keys[i].net < keys[j].net
				}
				return keys[i].tag < keys[j].tag
			})
			rows := make([]schema.Row, 0, len(keys))
			for _, k := range keys {
				rows = append(rows, schema.Row{
					ltval.NewInt64(k.net),
					ltval.NewString(k.tag),
					ltval.NewTimestamp(start),
					ltval.NewInt64(sums[k]),
				})
			}
			return rows
		},
	}
}

// ClientCounter builds per-network HyperLogLog sketches of distinct
// clients from an events source table (client identifiers appear in event
// info), the fixed-size probabilistic set tracking of §4.1.2.
type ClientCounter struct {
	periodic
}

// NewClientCounter returns an HLL aggregator from src (events schema) to
// dst (HLLSchema).
func NewClientCounter(src, dst *core.Table, clk clock.Clock, horizon int64) *ClientCounter {
	return &ClientCounter{periodic: newPeriodic(src, dst, clk, clock.Hour, horizon)}
}

// Run processes all complete periods older than the persistence lag.
func (c *ClientCounter) Run() error {
	_, err := c.run(DefaultPersistenceLag, "hll", c.fold)
	return err
}

// fold sketches each network's distinct clients over one period.
func (c *ClientCounter) fold() fold {
	sketches := map[int64]*hll.Sketch{}
	return fold{
		add: func(row schema.Row) {
			net := row[0].Int
			s := sketches[net]
			if s == nil {
				s = hll.MustNew(hll.DefaultPrecision)
				sketches[net] = s
			}
			s.Add(row[5].Bytes) // "client=<mac>"
		},
		rows: func(start int64) []schema.Row {
			rows := make([]schema.Row, 0, len(sketches))
			for _, n := range sortedNets(sketches) {
				rows = append(rows, schema.Row{
					ltval.NewInt64(n),
					ltval.NewTimestamp(start),
					ltval.NewBlob(sketches[n].Marshal()),
				})
			}
			return rows
		},
	}
}

// DistinctClients unions the sketches stored for a network over
// [minTs, maxTs] and returns the estimated distinct-client count —
// demonstrating that sketches stored as blobs merge across periods.
func DistinctClients(dst *core.Table, network int64, minTs, maxTs int64) (uint64, error) {
	q := core.NewQuery()
	q.Lower = []ltval.Value{ltval.NewInt64(network)}
	q.Upper = q.Lower
	q.MinTs, q.MaxTs = minTs, maxTs
	it, err := dst.Query(q)
	if err != nil {
		return 0, err
	}
	defer it.Close()
	var total *hll.Sketch
	for it.Next() {
		s, err := hll.Unmarshal(it.Row()[2].Bytes)
		if err != nil {
			return 0, err
		}
		if total == nil {
			total = s
		} else if err := total.Merge(s); err != nil {
			return 0, err
		}
	}
	if err := it.Err(); err != nil {
		return 0, err
	}
	if total == nil {
		return 0, nil
	}
	return total.Estimate(), nil
}
