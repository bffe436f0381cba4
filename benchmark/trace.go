package main

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"littletable/internal/agg"
	"littletable/internal/block"
	"littletable/internal/blockcache"
	"littletable/internal/bloom"
	"littletable/internal/client"
	"littletable/internal/clock"
	"littletable/internal/core"
	"littletable/internal/ltval"
	"littletable/internal/memtable"
	"littletable/internal/schema"
	"littletable/internal/tablet"
	"littletable/internal/vfs"
	"littletable/internal/wire"
)

// The traced run attributes time to layers from outside the program, by
// nested replay: a fixed sample of the measured phase's operations is
// re-run one layer down at a time — the same query against the core table
// directly, the same key range through tablet cursors on the table's
// files, the same number of blocks through block.Decode, the same rows
// through the wire codec — and a layer's self time is its span minus its
// children. Replays run after the measured phase, as epochs of their own
// phase, so their timings get the same drift correction.

const (
	samplesPerOp   = 24 // ops of each kind replayed per run, evenly spaced over the traced epochs
	traceBlock     = 8  // epochs are traced in alternating blocks of this many
	replayCacheMax = 1 << 20
	microRows      = 8192
	microBatch     = 1024
	microReps      = 4
	microSeeks     = 256
	microOpens     = 32
	rttProbes      = 200
	routerProbes   = 24
	scratchTable   = 97 // generator table index of replay-only rows
	scratchTable2  = 98
)

// sampledOp is a measured-phase client operation kept for replay.
type sampledOp struct {
	kind         string // "insert", "query", "latest", "agg"
	id           int64  // root span
	ns           time.Duration
	table        *tableState
	from, n      int64 // insert: generator row range
	scan         scanSpec
	dev          int64
	minTs, maxTs int64
	rows         int64
	spec         agg.Spec
}

// due reports whether the op of this kind that just completed is one of
// the fixed sample to replay: every stride-th op of its kind in traced
// epochs, the stride sized so about samplesPerOp are taken per run.
func (b *bench) due(kind string) bool {
	if !b.tracing {
		return false
	}
	stride := int(float64(b.epochs) / 2 * b.spec.opsPerEpoch[kind] / samplesPerOp)
	if stride < 1 {
		stride = 1
	}
	b.kindSeen[kind]++
	return b.kindSeen[kind]%stride == 0
}

// sample replays op one layer down at a time if it is due. It runs right
// after the op, against the very state the op saw, outside the epoch's
// timed work and with span recording paused.
func (b *bench) sample(op sampledOp) {
	if !b.due(op.kind) {
		return
	}
	b.tr.on.Store(false)
	b.env.fs.timed.Store(false)
	var err error
	switch op.kind {
	case "insert":
		err = b.rp.replayInsert(op)
	case "query":
		err = b.rp.replayQuery(op)
	case "latest":
		err = b.rp.replayLatest(op)
	case "agg":
		err = b.rp.replayAgg(op)
	}
	if err != nil {
		b.attempted++
		b.fail("replay of %s op %d: %v", op.kind, op.id, err)
	}
	b.rp.replayed[op.kind]++
	b.tr.on.Store(true)
	b.env.fs.timed.Store(true)
}

// replayer holds what the replays share: their own phase (for drift), a
// timing filesystem, the table's opened tablet files, and scratch space.
type replayer struct {
	b     *bench
	ph    *phase // where samples go: the measured phase while it runs, then the replay phase
	fs    *meterFS
	dir   string
	items []func() error

	open     map[*tableState]map[string]*tablet.Tablet // replay cursors' tablets, by file name
	caches   map[*tableState]*blockcache.Cache         // and their block cache, the workload's capacity
	rep      map[*tableState]blockImage                // one representative block per table
	scratch  *core.Table                               // replayed inserts land here, never in the workload's tables
	closers  []func() error
	replayed map[string]int

	selfSum, rootSum float64 // Σ clamped self times and Σ root spans of replayed ops
	tabletsSeen      float64 // Σ tablets intersecting a replayed query's window
	tabletQueries    float64

	lastAgg *wire.AggResult
	scalars map[string]float64 // values that are not phase samples
}

// add queues one replay item; each runs as its own epoch.
func (r *replayer) add(fn func() error) { r.items = append(r.items, fn) }

// timed runs fn as a named sample of the current epoch, calibrated like
// any other but not charged to the epoch's measured time.
func (r *replayer) timed(name string, rows int64, fn func()) (time.Time, time.Duration) {
	start := time.Now()
	fn()
	d := time.Since(start)
	r.ph.note(name, rows, d)
	return start, d
}

// setRows fixes up the row count of the sample just recorded, for
// sections that only learn it by running.
func (r *replayer) setRows(n int64) { r.ph.samples[len(r.ph.samples)-1].rows = n }

// openTablets returns the table's current tablet files, opened through
// the timing filesystem and kept open across replays (files that merges
// have since removed are closed and dropped). They share a block cache of
// the workload's own capacity (up to replayCacheMax) — handles are the
// tablets' sequence numbers, which are never reused — so replay cursors
// thrash or hit much as the table's did.
func (r *replayer) openTablets(t *tableState) ([]*tablet.Tablet, error) {
	dir := filepath.Join(r.b.env.dir, fmt.Sprintf("shard%d", t.shard), t.name)
	ents, err := r.fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	open := r.open[t]
	if open == nil {
		open = map[string]*tablet.Tablet{}
		r.open[t] = open
		if c := r.b.spec.env.blockCache; c > 0 {
			// The cache budget counts encoded bytes; decoded blocks hold
			// ~30x that, so a second full-size cache would double the
			// heap and the GC's work. A range touches a few blocks.
			r.caches[t] = blockcache.New(min(c, replayCacheMax))
		}
	}
	live := map[string]bool{}
	var tabs []*tablet.Tablet
	for _, ent := range ents {
		seq, perr := strconv.ParseUint(strings.TrimSuffix(ent.Name(), ".tab"), 10, 64)
		if perr != nil {
			continue // descriptor, temp files
		}
		live[ent.Name()] = true
		tab := open[ent.Name()]
		if tab == nil {
			if tab, err = tablet.OpenFS(r.fs, filepath.Join(dir, ent.Name())); err != nil {
				return nil, err
			}
			if cache := r.caches[t]; cache != nil {
				tab.SetBlockCache(cache, seq+1)
			}
			open[ent.Name()] = tab
		}
		tabs = append(tabs, tab)
	}
	for name, tab := range open {
		if !live[name] {
			tab.Close()
			delete(open, name)
		}
	}
	return tabs, nil
}

func (s scanSpec) coreQuery() core.Query {
	q := core.NewQuery()
	q.Lower, q.Upper = keyPrefix(s.d0), keyPrefix(s.d1)
	q.MinTs, q.MaxTs = s.minTs, s.maxTs
	q.Descending = s.desc
	q.Limit = int(s.limit)
	return q
}

// coreScan drains q on the core table. With keep it clones the rows out
// (the iterator's row buffer is reused).
func coreScan(b *bench, t *core.Table, q core.Query, keep bool) ([]schema.Row, int64, error) {
	it, err := t.QueryCtx(b.ctx, q)
	if err != nil {
		return nil, 0, err
	}
	defer it.Close()
	var rows []schema.Row
	var n int64
	for (q.Limit == 0 || n < int64(q.Limit)) && it.Next() {
		n++
		if keep {
			rows = append(rows, schema.CloneRow(it.Row()))
		}
	}
	return rows, n, it.Err()
}

// tabletScan walks the same key range × window through tablet cursors on
// every tablet file whose timespan intersects it, as core's merge cursor
// does — but one tablet after another, without core's parallel opens and
// prefetch pipelines — each source yielding at most limit rows. It
// reports rows matched, blocks read and tablets opened.
func tabletScan(tabs []*tablet.Tablet, sc *schema.Schema, s scanSpec) (rows int64, blocks int, opened int, err error) {
	lo, hi := keyPrefix(s.d0), keyPrefix(s.d1)
	for _, tab := range tabs {
		minTs, maxTs := tab.Timespan()
		if minTs > s.maxTs || maxTs < s.minTs {
			continue
		}
		opened++
		probe := lo
		if s.desc {
			probe = hi
		}
		cur, err := tab.Seek(probe, !s.desc)
		if err != nil {
			return rows, blocks, opened, err
		}
		var got int64
		for cur.Next() && (s.limit == 0 || got < s.limit) {
			row := cur.Row()
			key := sc.KeyOf(row)[:2]
			if (!s.desc && schema.CompareKeySlices(key, hi) > 0) || (s.desc && schema.CompareKeySlices(key, lo) < 0) {
				break
			}
			if ts := sc.Ts(row); ts >= s.minTs && ts <= s.maxTs {
				got++
			}
		}
		rows += got
		blocks += cur.BlocksRead
		err = cur.Err()
		cur.Close()
		if err != nil {
			return rows, blocks, opened, err
		}
	}
	return rows, blocks, opened, nil
}

// encodeBlocks packs key-ordered rows into block images like the tablet
// writer does.
func encodeBlocks(sc *schema.Schema, rows []schema.Row, mode block.Mode) (imgs [][]byte, encs []block.Encoding) {
	w := block.NewWriterMode(sc, mode)
	flush := func() {
		img, enc := w.Finish()
		imgs = append(imgs, append([]byte(nil), img...))
		encs = append(encs, enc)
	}
	for _, row := range rows {
		w.Append(row)
		if w.SizeBytes() >= block.TargetSize {
			flush()
		}
	}
	if w.Count() > 0 {
		flush()
	}
	return imgs, encs
}

func decodeBlocks(sc *schema.Schema, imgs [][]byte, encs []block.Encoding) (int64, error) {
	var n int64
	for i, img := range imgs {
		blk, err := block.Decode(sc, encs[i], img)
		if err != nil {
			return n, err
		}
		for j := 0; j < blk.Len(); j++ {
			if _, err := blk.Row(j); err != nil {
				return n, err
			}
			n++
		}
	}
	return n, nil
}

type blockImage struct {
	img []byte
	enc block.Encoding
}

// rnode is one replayed layer of a sampled op: its duration and the
// layers replayed beneath it.
type rnode struct {
	name string
	d    time.Duration
	kids []rnode
}

// nest records the replay spans of one sampled op under its root span
// and accumulates the self-time check. Self time = span − children,
// clamped at 0 because a replay is a separate execution and can exceed
// its parent.
func (r *replayer) nest(op sampledOp, start time.Time, kids []rnode) {
	r.rootSum += float64(op.ns)
	r.selfSum += r.nestUnder(op.id, op.id, start, op.ns, kids)
}

func (r *replayer) nestUnder(parent, op int64, start time.Time, d time.Duration, kids []rnode) (selfSum float64) {
	self := float64(d)
	for _, k := range kids {
		id := r.b.tr.replay(parent, op, k.name, start, k.d)
		selfSum += r.nestUnder(id, op, start, k.d, k.kids)
		self -= float64(k.d)
	}
	if self > 0 {
		selfSum += self
	}
	return selfSum
}

// wireRows times rows through the query-response codec — encoded as the
// server does, decoded as the client does — and returns the two together.
func (r *replayer) wireRows(rows []schema.Row) (time.Duration, error) {
	sc, n := r.b.sc, int64(len(rows))
	var payload []byte
	var err error
	_, dEnc := r.timed("wire.rows_encode", n, func() {
		payload = (&wire.Rows{SchemaVersion: sc.Version, Rows: rows}).Encode(sc)
	})
	_, dDec := r.timed("wire.rows_decode", n, func() { _, err = wire.DecodeRows(payload, sc) })
	r.scalars["wire.bytes"] += float64(len(payload))
	r.scalars["wire.rows"] += float64(n)
	return dEnc + dDec, err
}

// wireInsert is wireRows for the insert codec: client encode, server decode.
func (r *replayer) wireInsert(rows []schema.Row) (time.Duration, error) {
	sc, n := r.b.sc, int64(len(rows))
	var payload []byte
	var err error
	_, dEnc := r.timed("wire.insert_encode", n, func() { payload = wire.NewInsert("replay", sc, false, rows).Encode() })
	_, dDec := r.timed("wire.insert_decode", n, func() {
		var m *wire.Insert
		var d *wire.Dec
		if m, d, err = wire.DecodeInsertHeader(payload); err == nil {
			err = m.FinishDecode(d, sc)
		}
	})
	return dEnc + dDec, err
}

// replayQuery: client.query → core.query → tablet.scan → block.decode
// (+ vfs inside tablet), and wire rows encode/decode beside core.
func (r *replayer) replayQuery(op sampledOp) error {
	b, t := r.b, op.table
	q := op.scan.coreQuery()
	var n int64
	var err error
	start, dCore := r.timed("core.query", op.rows, func() { _, n, err = coreScan(b, t.core, q, false) })
	if err != nil {
		return err
	}
	if n != op.rows {
		return fmt.Errorf("replay: core query returned %d rows, client got %d", n, op.rows)
	}
	rows, _, err := coreScan(b, t.core, q, true)
	if err != nil {
		return err
	}
	dWire, err := r.wireRows(rows)
	if err != nil {
		return err
	}

	tabs, err := r.openTablets(t)
	if err != nil {
		return err
	}
	var blocks, opened int
	if r.b.spec.env.blockCache >= t.core.DiskBytes()/2 {
		// The table's cache covers the working set, so the op found its
		// blocks cached; walk the range once so the replay does too.
		if _, _, _, err = tabletScan(tabs, b.sc, op.scan); err != nil {
			return err
		}
	}
	busy0 := r.fs.busyNs.Load()
	var miss0 int64
	if c := r.caches[t]; c != nil {
		_, miss0 = c.Stats()
	}
	_, dTab := r.timed("tablet.range", op.rows, func() { _, blocks, opened, err = tabletScan(tabs, b.sc, op.scan) })
	if err != nil {
		return err
	}
	dVfs := time.Duration(r.fs.busyNs.Load() - busy0)
	if c := r.caches[t]; c != nil {
		_, miss := c.Stats()
		blocks = int(miss - miss0) // cached blocks are not decoded again
	}
	r.tabletsSeen += float64(opened)
	r.tabletQueries++

	// The same number of blocks, of the table's own rows, through Decode+Row.
	img, enc := r.repBlock(t, tabs)
	var dBlk time.Duration
	if img != nil && blocks > 0 {
		imgs, encs := make([][]byte, blocks), make([]block.Encoding, blocks)
		for i := range imgs {
			imgs[i], encs[i] = img, enc
		}
		_, dBlk = r.timed("block.decode_replay", 0, func() { _, err = decodeBlocks(b.sc, imgs, encs) })
		if err != nil {
			return err
		}
	}
	r.nest(op, start, []rnode{
		{"core.query", dCore, []rnode{
			{"tablet.range", dTab, []rnode{{"block.decode", dBlk, nil}, {"vfs.read", dVfs, nil}}}}},
		{"wire.rows_codec", dWire, nil}})
	r.scalars["server.self_ns"] += float64(op.ns - dCore - dWire)
	r.scalars["server.self_rows"] += float64(op.rows)
	return nil
}

// repBlock returns one full block image of the table's own rows (the
// first block of its largest tablet when first asked, re-encoded in auto
// mode).
func (r *replayer) repBlock(t *tableState, tabs []*tablet.Tablet) ([]byte, block.Encoding) {
	if rep, ok := r.rep[t]; ok {
		return rep.img, rep.enc
	}
	var big *tablet.Tablet
	for _, tab := range tabs {
		if big == nil || tab.RowCount() > big.RowCount() {
			big = tab
		}
	}
	if big == nil {
		return nil, 0
	}
	w := block.NewWriterMode(r.b.sc, block.ModeAuto)
	cur := big.Cursor(true)
	defer cur.Close()
	for cur.Next() && w.SizeBytes() < block.TargetSize {
		w.Append(cur.Row())
	}
	if w.Count() == 0 {
		return nil, 0
	}
	img, enc := w.Finish()
	r.rep[t] = blockImage{append([]byte(nil), img...), enc}
	return r.rep[t].img, enc
}

// replayInsert: client.insert → core.insert (a scratch table with the
// workload's options) → memtable.insert, and wire insert codec beside.
func (r *replayer) replayInsert(op sampledOp) error {
	b := r.b
	rows, _ := b.gen.batch(scratchTable, op.from, op.n)
	var err error
	start, dCore := r.timed("core.insert", op.n, func() { err = r.scratch.Insert(rows) })
	if err != nil {
		return err
	}
	mt := memtable.New(b.sc)
	now := b.env.clk.Now()
	_, dMem := r.timed("memtable.insert", op.n, func() {
		for _, row := range rows {
			mt.Insert(now, row)
		}
	})
	dWire, err := r.wireInsert(rows)
	if err != nil {
		return err
	}
	r.nest(op, start, []rnode{
		{"core.insert", dCore, []rnode{{"memtable.insert", dMem, nil}}},
		{"wire.insert_codec", dWire, nil}})
	r.scalars["server.self_ns"] += float64(op.ns - dCore - dWire)
	r.scalars["server.self_rows"] += float64(op.n)
	return nil
}

func (r *replayer) replayLatest(op sampledOp) error {
	var err error
	start, d := r.timed("core.latest", 1, func() { _, _, err = op.table.core.LatestRow(keyPrefix(op.dev)) })
	if err != nil {
		return err
	}
	r.nest(op, start, []rnode{{"core.latest", d, nil}})
	return nil
}

// replayAgg follows the blocking path of a scattered AggQuery: the shard
// holding the most tables scans and folds its tables one after another,
// then partials are merged (shard, then router) and cross the wire twice.
func (r *replayer) replayAgg(op sampledOp) error {
	b := r.b
	perShard := map[int][]*tableState{}
	for _, t := range b.tables {
		perShard[t.shard] = append(perShard[t.shard], t)
	}
	slow := -1
	for s, ts := range perShard {
		if slow < 0 || len(ts) > len(perShard[slow]) || (len(ts) == len(perShard[slow]) && s < slow) {
			slow = s
		}
	}
	tables := perShard[slow]
	sort.Slice(tables, func(i, j int) bool { return tables[i].name < tables[j].name })
	q := core.Query{MinTs: op.minTs, MaxTs: op.maxTs, LowerInc: true, UpperInc: true}
	var dCore, dAdd, dMerge time.Duration
	var start time.Time
	var partials []wire.AggTablePartial
	var merged []agg.Group
	for i, t := range tables {
		var err error
		var n int64
		s0, d := r.timed("core.query", 0, func() { _, n, err = coreScan(b, t.core, q, false) })
		if err != nil {
			return err
		}
		r.setRows(n)
		if i == 0 {
			start = s0
		}
		dCore += d
		rows, _, err := coreScan(b, t.core, q, true)
		if err != nil {
			return err
		}
		acc, err := agg.NewAccumulator(b.sc, op.spec)
		if err != nil {
			return err
		}
		var groups []agg.Group
		_, d = r.timed("agg.add", n, func() {
			for _, row := range rows {
				acc.Add(row)
			}
			groups = acc.Groups()
		})
		dAdd += d
		partials = append(partials, wire.AggTablePartial{Table: t.name, Groups: groups})
		_, d = r.timed("agg.merge", int64(len(merged)+len(groups)), func() { merged = agg.MergeGroups(op.spec, merged, groups) })
		dMerge += d
	}
	res := &wire.AggResult{Spec: op.spec, Tables: partials, Groups: merged}
	var payload []byte
	var err error
	_, dEnc := r.timed("wire.agg_codec", int64(len(merged)), func() {
		payload = res.Encode()
		_, err = wire.DecodeAggResult(payload)
	})
	if err != nil {
		return err
	}
	r.lastAgg = &wire.AggResult{Spec: op.spec, Groups: merged}
	r.nest(op, start, []rnode{
		{"core.query", dCore, nil}, {"agg.add", dAdd, nil}, {"agg.merge", dMerge, nil}, {"wire.agg_codec", dEnc, nil}})
	return nil
}

// microSample materialises the fixed micro-benchmark sample: the first
// microRows generator rows of a replay-only table, in arrival order and
// in key order.
func (r *replayer) microSample(table int) (arrival, sorted []schema.Row) {
	arrival, _ = r.b.gen.batch(table, 0, microRows)
	sorted = append([]schema.Row(nil), arrival...)
	sc := r.b.sc
	sort.Slice(sorted, func(i, j int) bool { return sc.CompareKeys(sorted[i], sorted[j]) < 0 })
	return arrival, sorted
}

// micro queues the per-module micro replays: the module's exported
// functions driven with generator rows, outside the request path.
func (r *replayer) micro() {
	b, sc := r.b, r.b.sc
	arrival, sorted := r.microSample(scratchTable2)

	// The pure-CPU modules are cheap to drive and, one pass at a time, at
	// the mercy of whichever GC cycle overlaps the pass: each runs
	// microReps times, every pass an epoch with its own calibration.
	for rep := 0; rep < microReps; rep++ {
		r.microCPU(arrival, sorted)
	}

	path := filepath.Join(r.dir, "micro.tab")
	r.add(func() error { // tablet writer, cursor, seek, open; block cache hit vs miss
		var err error
		r.timed("tablet.write", microRows, func() {
			var w *tablet.Writer
			if w, err = tablet.Create(path, sc, tablet.WriterOptions{FS: r.fs}); err != nil {
				return
			}
			for _, row := range sorted {
				if err = w.Append(row); err != nil {
					return
				}
			}
			_, err = w.Close()
		})
		if err != nil {
			return err
		}
		for i := 0; i < microOpens; i++ {
			var tab *tablet.Tablet
			r.timed("tablet.open", 1, func() { tab, err = tablet.OpenFS(r.fs, path) })
			if err != nil {
				return err
			}
			if err := tab.Close(); err != nil {
				return err
			}
		}
		tab, err := tablet.OpenFS(r.fs, path)
		if err != nil {
			return err
		}
		defer tab.Close()
		r.timed("tablet.scan", microRows, func() {
			cur := tab.Cursor(true)
			for cur.Next() {
				_ = cur.Row()
			}
			err = cur.Err()
			cur.Close()
		})
		if err != nil {
			return err
		}
		probes := make([][]ltval.Value, microSeeks)
		rng := rand.New(rand.NewSource(1))
		for i := range probes {
			probes[i] = sc.KeyOf(sorted[rng.Intn(len(sorted))])
		}
		seekAll := func(name string) error {
			for _, p := range probes {
				r.timed(name, 1, func() {
					var cur *tablet.Cursor
					if cur, err = tab.Seek(p, true); err == nil {
						cur.Next()
						cur.Close()
					}
				})
				if err != nil {
					return err
				}
			}
			return nil
		}
		if err := seekAll("tablet.seek"); err != nil {
			return err
		}
		// One probe per block: with a fresh cache attached every first
		// seek misses (read + decode + insert) and every repeat hits.
		nb := tab.BlockCount()
		for round := 0; round < microOpens; round++ {
			tab.SetBlockCache(blockcache.New(64<<20), uint64(round+1))
			for _, name := range []string{"blockcache.miss", "blockcache.hit"} {
				for j := 0; j < nb; j++ {
					p := sc.KeyOf(sorted[(2*j+1)*len(sorted)/(2*nb)])
					r.timed(name, 1, func() {
						var cur *tablet.Cursor
						if cur, err = tab.Seek(p, true); err == nil {
							cur.Close()
						}
					})
					if err != nil {
						return err
					}
				}
			}
		}
		return nil
	})

	r.add(func() error { // core on a fresh table: insert, flush, merge
		t, err := core.CreateTable(r.dir, "micro", sc, 0, b.spec.env.core(b.env.clk, r.fs))
		if err != nil {
			return err
		}
		defer t.Close()
		for round := int64(0); round < 4; round++ {
			rows, _ := b.gen.batch(scratchTable2, round*microRows, microRows)
			for off := 0; off < microRows; off += microBatch {
				r.timed("core.insert", microBatch, func() { err = t.Insert(rows[off : off+microBatch]) })
				if err != nil {
					return err
				}
			}
			r.timed("core.flush", 0, func() { err = t.FlushAll() })
			if err != nil {
				return err
			}
		}
		r.scalars["core.flush_bytes"] = float64(t.Stats().BytesFlushed.Load())
		b.env.clk.Advance(core.DefaultMergeDelay + clock.Second)
		r.timed("core.merge", 0, func() { _, err = t.MergeUntilStable() })
		r.scalars["core.merge_bytes"] = float64(t.Stats().BytesMerged.Load())
		return err
	})
}

// microCPU queues one pass over the modules that touch no file: wire
// codecs, memtable, block encode/decode in both modes, Bloom probes, and
// agg fold/merge/finalize on coinciding groups.
func (r *replayer) microCPU(arrival, sorted []schema.Row) {
	b, sc := r.b, r.b.sc
	r.add(func() error { // wire
		for off := 0; off < microRows; off += microBatch {
			rows := arrival[off : off+microBatch]
			if _, err := r.wireInsert(rows); err != nil {
				return err
			}
			if _, err := r.wireRows(rows); err != nil {
				return err
			}
		}
		return nil
	})

	r.add(func() error { // memtable
		mt := memtable.New(sc)
		now := b.env.clk.Now()
		r.timed("memtable.insert", microRows, func() {
			for _, row := range arrival {
				mt.Insert(now, row)
			}
		})
		r.timed("memtable.scan", microRows, func() {
			for c := mt.Cursor(true); c.Next(); {
				_ = c.Row()
			}
		})
		return nil
	})

	r.add(func() error { // block
		var imgs, legacy [][]byte
		var encs, lencs []block.Encoding
		r.timed("block.encode", microRows, func() { imgs, encs = encodeBlocks(sc, sorted, block.ModeAuto) })
		legacy, lencs = encodeBlocks(sc, sorted, block.ModeLegacy)
		var err error
		r.timed("block.decode", microRows, func() { _, err = decodeBlocks(sc, imgs, encs) })
		if err != nil {
			return err
		}
		r.timed("block.legacy_decode", microRows, func() { _, err = decodeBlocks(sc, legacy, lencs) })
		for _, img := range imgs {
			r.scalars["block.bytes"] += float64(len(img))
		}
		r.scalars["block.rows"] += microRows
		return err
	})

	r.add(func() error { // bloom
		keys := make([][]byte, len(sorted))
		for i, row := range sorted {
			keys[i] = sc.AppendKey(nil, row)
		}
		f := bloom.New(len(keys))
		for _, k := range keys[:len(keys)/2] {
			f.Add(k)
		}
		hits := 0
		r.timed("bloom.probe", int64(len(keys)), func() {
			for _, k := range keys {
				if f.MayContain(k) {
					hits++
				}
			}
		})
		if hits < len(keys)/2 {
			return fmt.Errorf("replay: bloom filter lost keys (%d of %d)", hits, len(keys)/2)
		}
		return nil
	})

	r.add(func() error { // agg: fold, merge, finalize on coinciding groups
		spec := aggSpec(2, clock.Minute)
		other, _ := b.gen.batch(scratchTable, 0, microRows)
		fold := func(rows []schema.Row, name string) ([]agg.Group, error) {
			acc, err := agg.NewAccumulator(sc, spec)
			if err != nil {
				return nil, err
			}
			var groups []agg.Group
			r.timed(name, int64(len(rows)), func() {
				for _, row := range rows {
					acc.Add(row)
				}
				groups = acc.Groups()
			})
			return groups, nil
		}
		g1, err := fold(arrival, "agg.add")
		if err != nil {
			return err
		}
		g2, err := fold(other, "agg.add")
		if err != nil {
			return err
		}
		var merged []agg.Group
		r.timed("agg.merge", int64(len(g1)+len(g2)), func() { merged = agg.MergeGroups(spec, g1, g2) })
		r.timed("agg.finalize", int64(len(merged)), func() { _ = agg.Finalize(spec, merged) })
		if r.lastAgg == nil {
			r.lastAgg = &wire.AggResult{Spec: spec, Groups: merged}
			r.scalars["agg.groups"] = float64(len(merged))
		}
		return nil
	})
}

// probes queue the fallback replays for operation kinds the workload did
// not issue, so every layer metric has a value on every workload, and the
// round-trip and router measurements.
func (r *replayer) probes() error {
	b := r.b
	t0 := b.tables[0]
	if r.replayed["query"] == 0 {
		for i := 0; i < samplesPerOp; i++ {
			d0 := int64(i*scanGroupSize) % numDevices
			s := scanSpec{table: t0.idx, n: t0.n, d0: d0, d1: d0 + scanGroupSize - 1, minTs: core.TsMin, maxTs: core.TsMax}
			r.add(func() error {
				var n int64
				var err error
				r.timed("core.query", 0, func() { _, n, err = coreScan(b, t0.core, s.coreQuery(), false) })
				r.setRows(n)
				if err != nil {
					return err
				}
				tabs, err := r.openTablets(t0)
				if err != nil {
					return err
				}
				_, _, opened, err := tabletScan(tabs, b.sc, s)
				r.tabletsSeen += float64(opened)
				r.tabletQueries++
				return err
			})
		}
	}
	if r.replayed["latest"] == 0 {
		r.add(func() error {
			for i := 0; i < samplesPerOp; i++ {
				var err error
				r.timed("core.latest", 1, func() { _, _, err = t0.core.LatestRow(keyPrefix(int64(i * 17 % numDevices))) })
				if err != nil {
					return err
				}
			}
			return nil
		})
	}

	// server.rtt_us: the smallest request there is, straight to shard 0.
	direct := make([]*client.Client, len(b.env.addrs))
	for i, addr := range b.env.addrs {
		cl, err := client.DialContext(b.ctx, addr, client.Options{PoolSize: 1})
		if err != nil {
			return err
		}
		direct[i] = cl
		r.closers = append(r.closers, cl.Close)
	}
	r.add(func() error {
		for i := 0; i < rttProbes; i++ {
			var err error
			r.timed("server.rtt", 1, func() { _, err = direct[0].ListTablesCtx(b.ctx) })
			if err != nil {
				return err
			}
		}
		return nil
	})
	if b.env.rt == nil {
		return nil
	}

	// Router: the same single-table query routed and direct (relay
	// overhead), and a scattered AggQuery against each shard's own share
	// asked directly (how long the scatter waits beyond its slowest part).
	for i := 0; i < routerProbes; i++ {
		t := b.tables[i%len(b.tables)]
		d0 := int64(i%numNetworks) * devicesPerNetwork
		s := scanSpec{d0: d0, d1: d0 + scanGroupSize - 1, minTs: core.TsMin, maxTs: core.TsMax}
		r.add(func() error {
			dt, err := direct[t.shard].OpenTable(t.name)
			if err != nil {
				return err
			}
			drain := func(ct *client.Table) error {
				rows := ct.QueryCtx(b.ctx, s.clientQuery())
				for rows.Next() {
				}
				return rows.Err()
			}
			r.timed("router.routed_query", 1, func() { err = drain(t.ct) })
			if err != nil {
				return err
			}
			r.timed("router.direct_query", 1, func() { err = drain(dt) })
			return err
		})
	}
	for i := 0; i < routerProbes; i++ {
		spec := aggSpec(2, fanWindow)
		lo := b.gen.base + fanFirstWindow + int64(b.order[i%len(b.order)])*fanWindow
		r.add(func() error {
			q := &wire.AggQuery{Prefix: b.spec.prefix, Spec: spec, MinTs: lo, MaxTs: lo + fanWindow - 1}
			var err error
			r.timed("router.scatter", 1, func() { _, err = b.env.cl.AggQuery(b.ctx, q) })
			if err != nil {
				return err
			}
			var slowest time.Duration
			var lists [][]agg.Group
			pq := *q
			pq.WantPartials = true
			for _, cl := range direct {
				var res *wire.AggResult
				start := time.Now()
				res, err = cl.AggQuery(b.ctx, &pq)
				if d := time.Since(start); d > slowest {
					slowest = d
				}
				if err != nil {
					return err
				}
				for _, sec := range res.Tables {
					lists = append(lists, sec.Groups)
				}
			}
			r.ph.note("router.slowest_shard", 1, slowest)
			var merged []agg.Group
			var groups int64
			for _, g := range lists {
				groups += int64(len(g))
			}
			r.timed("router.merge", groups, func() {
				for _, g := range lists {
					merged = agg.MergeGroups(spec, merged, g)
				}
			})
			return nil
		})
	}
	return nil
}

// newReplayer prepares the replay state of a traced run, before the
// measured phase: a timing filesystem, a scratch directory, and the
// scratch table that replayed inserts go to (the workload's own options).
func newReplayer(b *bench, cfg config) (*replayer, error) {
	r := &replayer{
		b:        b,
		fs:       newMeterFS(vfs.OsFS{}, nil),
		dir:      filepath.Join(cfg.workDir, "replay"),
		open:     map[*tableState]map[string]*tablet.Tablet{},
		caches:   map[*tableState]*blockcache.Cache{},
		rep:      map[*tableState]blockImage{},
		replayed: map[string]int{},
		scalars:  map[string]float64{},
	}
	r.fs.timed.Store(true)
	if err := r.fs.MkdirAll(r.dir); err != nil {
		return nil, err
	}
	var err error
	r.scratch, err = core.CreateTable(r.dir, "replay", b.sc, 0, b.spec.env.core(b.env.clk, r.fs))
	if err != nil {
		return nil, err
	}
	r.closers = append(r.closers, r.scratch.Close)
	return r, nil
}

// close releases everything the replays opened and removes the scratch
// directory.
func (r *replayer) close() error {
	var errs []error
	for _, open := range r.open {
		for _, tab := range open {
			errs = append(errs, tab.Close())
		}
	}
	for i := len(r.closers) - 1; i >= 0; i-- {
		errs = append(errs, r.closers[i]())
	}
	errs = append(errs, r.fs.RemoveAll(r.dir))
	return errors.Join(errs...)
}

// perLayer runs the post-phase replays (micro-benchmarks per module,
// fallback probes, round trips, router pairs) as a calibrated phase of
// their own, fills res.perLayer with every layer metric, and writes the
// span file.
func (b *bench) perLayer(res *result, m *measured, cfg config) error {
	r := b.rp
	r.ph = &phase{kernelReps: measureKernelReps}
	r.micro()
	if err := r.probes(); err != nil {
		return err
	}
	if err := r.ph.run(b.ctx, len(r.items), func(i int) error { return r.items[i]() }); err != nil {
		return err
	}
	res.perLayer = b.layerMetrics(m, r)
	for k, v := range res.harness {
		res.perLayer[k] = v
	}
	res.traceFile = filepath.Join(filepath.Dir(cfg.workDir), fmt.Sprintf("trace-%s-%d.json", b.spec.name, cfg.seed))
	return b.tr.write(vfs.OsFS{}, res.traceFile)
}
