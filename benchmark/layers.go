package main

import (
	"littletable/internal/core"
)

// The per-layer metric map of a traced run: counters read from the
// modules' exported stats over the measured phase, and calibrated timings
// of the replays (trace.go).

// statsSum is the per-table core counters summed over the workload's tables.
type statsSum struct {
	core.StatsSnapshot
	cacheHits, cacheMisses int64
	readBytes, readCalls   int64
	writeBytes, writeCalls int64
	syncCalls              int64
}

func (b *bench) snapshot() statsSum {
	var s statsSum
	for _, t := range b.tables {
		st := t.core.Stats().Snapshot()
		s.RowsInserted += st.RowsInserted
		s.RowsReturned += st.RowsReturned
		s.RowsScanned += st.RowsScanned
		s.RowsRewritten += st.RowsRewritten
		s.BlocksRead += st.BlocksRead
		s.PrefetchHits += st.PrefetchHits
		s.UniqueFastNew += st.UniqueFastNew
		s.UniqueFastKey += st.UniqueFastKey
		s.UniqueBloom += st.UniqueBloom
		s.UniqueProbes += st.UniqueProbes
		s.BackpressureStalls += st.BackpressureStalls
		s.BlocksEncoded += st.BlocksEncoded
		s.BlocksEncodedColumnar += st.BlocksEncodedColumnar
		s.TabletsFlushed += st.TabletsFlushed
		s.Merges += st.Merges
		h, m := t.core.BlockCacheStats()
		s.cacheHits += h
		s.cacheMisses += m
	}
	fs := b.env.fs
	s.readBytes, s.readCalls = fs.readBytes.Load(), fs.readCalls.Load()
	s.writeBytes, s.writeCalls = fs.writeBytes.Load(), fs.writeCalls.Load()
	s.syncCalls = fs.syncCall.Load()
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedEpoch is 1 for epochs of the measured phase that record spans:
// alternating blocks, so neither half lines up with a workload's own
// period (an AggQuery every 4th epoch, a relayed Query every 4th).
func tracedEpoch(i int) int { return (i / traceBlock) % 2 }

// phases answers sample queries over several phases at once.
type phases []*phase

func (ps phases) calMs(name string) []float64 {
	var out []float64
	for _, p := range ps {
		out = append(out, p.calMs(name)...)
	}
	return out
}

func (ps phases) calNsPerRow(name string) float64 {
	var ns float64
	var rows int64
	for _, p := range ps {
		for _, s := range p.pick(name) {
			ns += float64(s.ns) / p.drift[s.epoch]
			rows += s.rows
		}
	}
	return ratio(ns, float64(rows))
}

// layerMetrics assembles the per-layer metric map. Names are
// <module>.<metric>; every timing is calibrated.
func (b *bench) layerMetrics(m *measured, r *replayer) map[string]metric {
	ph, rp := m.ph, phases{m.ph, r.ph} // replay samples live in both
	d := b.snapshot()
	d0 := b.before
	delta := func(a, z int64) float64 { return float64(z - a) }
	rowsServed := float64(b.rowsOut + b.rowsFolded)
	p := func(xs []float64, q float64) float64 { return percentile(xs, q) }
	usOf := func(xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * 1e3
		}
		return out
	}
	drain := func() []float64 { // query time after the first row
		all, first := ph.calMs("query"), ph.calFirstMs("query")
		out := make([]float64, len(all))
		for i := range all {
			out[i] = all[i] - first[i]
		}
		return out
	}
	// Tracing overhead: client-op throughput of untraced vs traced epochs.
	// Ticks are left out: flushes and merges fall at fixed row counts, so
	// which half they land in is a property of the workload, not of tracing.
	var rowsBy, secBy [2]float64
	traced := 0
	for _, s := range ph.samples {
		if isClientOp(s.name) {
			h := tracedEpoch(int(s.epoch))
			rowsBy[h] += float64(s.rows)
			secBy[h] += float64(s.ns) / ph.drift[s.epoch] / 1e9
		}
	}
	for i := range ph.epochNs {
		traced += tracedEpoch(i)
	}
	overhead := (ratio(rowsBy[0], secBy[0])/ratio(rowsBy[1], secBy[1]) - 1) * 100
	tracedShare := ratio(float64(traced), float64(len(ph.epochNs)))

	relay := func() float64 { // median of paired routed − direct
		routed, direct := rp.calMs("router.routed_query"), rp.calMs("router.direct_query")
		diffs := make([]float64, 0, len(routed))
		for i := range routed {
			if i < len(direct) {
				diffs = append(diffs, (routed[i]-direct[i])*1e3)
			}
		}
		return median(diffs)
	}
	waitShare := func() float64 {
		sc, sl := rp.calMs("router.scatter"), rp.calMs("router.slowest_shard")
		shares := make([]float64, 0, len(sc))
		for i := range sc {
			if i < len(sl) && sl[i] > 0 {
				shares = append(shares, sc[i]/sl[i])
			}
		}
		return median(shares)
	}
	var shed int64
	for _, srv := range b.env.srvs {
		shed += srv.Stats().RequestsShed.Load()
	}
	aggBytes := 0.0
	if r.lastAgg != nil {
		aggBytes = float64(len(r.lastAgg.Encode()))
	}
	groupsPerQuery := ratio(float64(b.aggGroups), float64(b.aggOps))
	if b.aggOps == 0 {
		groupsPerQuery = r.scalars["agg.groups"]
	}
	uniq := float64(d.UniqueFastNew + d.UniqueFastKey + d.UniqueBloom + d.UniqueProbes)
	flushNs := 0.0
	for _, ms := range rp.calMs("core.flush") {
		flushNs += ms
	}
	mergeMs := 0.0
	for _, ms := range rp.calMs("core.merge") {
		mergeMs += ms
	}
	miss, hit := rp.calMs("blockcache.miss"), rp.calMs("blockcache.hit")

	return map[string]metric{
		"client.insert_ms_p50":          {p(ph.calMs("insert"), 50), "ms"},
		"client.insert_ms_p99":          {p(ph.calMs("insert"), 99), "ms"},
		"client.query_first_row_ms_p50": {p(ph.calFirstMs("query"), 50), "ms"},
		"client.query_drain_ms_p50":     {p(drain(), 50), "ms"},
		"client.query_ms_p99":           {p(ph.calMs("query"), 99), "ms"},
		"client.latest_us_p50":          {p(usOf(ph.calMs("latest")), 50), "us"},
		"client.agg_ms_p50":             {p(ph.calMs("agg"), 50), "ms"},
		"client.retries":                {float64(b.env.cl.Stats().Retries.Load()), "count"},
		"client.failed_ops":             {float64(b.failed), "count"},

		"wire.insert_encode_ns_per_row": {rp.calNsPerRow("wire.insert_encode"), "ns/row"},
		"wire.insert_decode_ns_per_row": {rp.calNsPerRow("wire.insert_decode"), "ns/row"},
		"wire.rows_encode_ns_per_row":   {rp.calNsPerRow("wire.rows_encode"), "ns/row"},
		"wire.rows_decode_ns_per_row":   {rp.calNsPerRow("wire.rows_decode"), "ns/row"},
		"wire.bytes_per_row":            {ratio(r.scalars["wire.bytes"], r.scalars["wire.rows"]), "B/row"},
		"wire.agg_result_bytes":         {aggBytes, "B"},

		"server.rtt_us":          {p(usOf(rp.calMs("server.rtt")), 50), "us"},
		"server.self_ns_per_row": {ratio(r.scalars["server.self_ns"], r.scalars["server.self_rows"]), "ns/row"},
		"server.requests_shed":   {float64(shed), "count"},

		"router.relay_overhead_us":  {relay(), "us"},
		"router.scatter_ms_p50":     {p(rp.calMs("router.scatter"), 50), "ms"},
		"router.fanout_wait_share":  {waitShare(), "ratio"},
		"router.merge_ns_per_group": {rp.calNsPerRow("router.merge"), "ns/group"},

		"core.insert_ns_per_row":         {rp.calNsPerRow("core.insert"), "ns/row"},
		"core.query_ns_per_row":          {rp.calNsPerRow("core.query"), "ns/row"},
		"core.latest_us":                 {p(usOf(rp.calMs("core.latest")), 50), "us"},
		"core.flush_ms_per_mb":           {ratio(flushNs, r.scalars["core.flush_bytes"]/(1<<20)), "ms/MB"},
		"core.merge_ms_per_mb":           {ratio(mergeMs, r.scalars["core.merge_bytes"]/(1<<20)), "ms/MB"},
		"core.tick_ms_p99":               {p(ph.calMs("tick"), 99), "ms"},
		"core.rows_scanned_per_returned": {ratio(delta(d0.RowsScanned, d.RowsScanned), delta(d0.RowsReturned, d.RowsReturned)), "ratio"},
		"core.rows_rewritten_per_row":    {ratio(float64(d.RowsRewritten), float64(d.RowsInserted)), "ratio"},
		"core.tablets_per_query":         {ratio(r.tabletsSeen, r.tabletQueries), "count"},
		"core.unique_probe_share":        {ratio(float64(d.UniqueProbes), uniq), "ratio"},
		"core.blocks_read_per_krow":      {1000 * ratio(delta(d0.BlocksRead, d.BlocksRead), delta(d0.RowsReturned, d.RowsReturned)), "1/krow"},
		"core.prefetch_hit_rate":         {ratio(delta(d0.PrefetchHits, d.PrefetchHits), delta(d0.BlocksRead, d.BlocksRead)), "ratio"},
		"core.backpressure_stalls":       {float64(d.BackpressureStalls), "count"},
		"core.flushes":                   {delta(d0.TabletsFlushed, d.TabletsFlushed), "count"},
		"core.merges":                    {delta(d0.Merges, d.Merges), "count"},

		"memtable.insert_ns_per_row": {rp.calNsPerRow("memtable.insert"), "ns/row"},
		"memtable.scan_ns_per_row":   {rp.calNsPerRow("memtable.scan"), "ns/row"},

		"tablet.write_ns_per_row": {rp.calNsPerRow("tablet.write"), "ns/row"},
		"tablet.scan_ns_per_row":  {rp.calNsPerRow("tablet.scan"), "ns/row"},
		"tablet.seek_us":          {p(usOf(rp.calMs("tablet.seek")), 50), "us"},
		"tablet.open_us":          {p(usOf(rp.calMs("tablet.open")), 50), "us"},

		"block.encode_ns_per_row":        {rp.calNsPerRow("block.encode"), "ns/row"},
		"block.decode_ns_per_row":        {rp.calNsPerRow("block.decode"), "ns/row"},
		"block.legacy_decode_ns_per_row": {rp.calNsPerRow("block.legacy_decode"), "ns/row"},
		"block.bytes_per_row":            {ratio(r.scalars["block.bytes"], r.scalars["block.rows"]), "B/row"},
		"block.columnar_share":           {ratio(float64(d.BlocksEncodedColumnar), float64(d.BlocksEncoded)), "ratio"},

		"blockcache.hit_rate": {ratio(delta(d0.cacheHits, d.cacheHits), delta(d0.cacheHits, d.cacheHits)+delta(d0.cacheMisses, d.cacheMisses)), "ratio"},
		"blockcache.hit_ns":   {1e6 * p(hit, 50), "ns"},
		"blockcache.miss_ns":  {1e6 * p(miss, 50), "ns"},

		"bloom.probe_ns": {rp.calNsPerRow("bloom.probe"), "ns"},

		"agg.add_ns_per_row":        {rp.calNsPerRow("agg.add"), "ns/row"},
		"agg.merge_ns_per_group":    {rp.calNsPerRow("agg.merge"), "ns/group"},
		"agg.finalize_ns_per_group": {rp.calNsPerRow("agg.finalize"), "ns/group"},
		"agg.groups_per_query":      {groupsPerQuery, "count"},

		"vfs.write_bytes":                 {delta(d0.writeBytes, d.writeBytes), "B"},
		"vfs.read_bytes":                  {delta(d0.readBytes, d.readBytes), "B"},
		"vfs.write_calls":                 {delta(d0.writeCalls, d.writeCalls), "count"},
		"vfs.read_calls":                  {delta(d0.readCalls, d.readCalls), "count"},
		"vfs.sync_calls":                  {delta(d0.syncCalls, d.syncCalls), "count"},
		"vfs.busy_ms":                     {ratio(float64(b.env.fs.busyNs.Load())/1e6, tracedShare), "ms"},
		"vfs.read_bytes_per_row_returned": {ratio(delta(d0.readBytes, d.readBytes), rowsServed), "B/row"},

		"harness.trace_overhead_pct":   {overhead, "%"},
		"harness.trace_self_sum_ratio": {ratio(r.selfSum, r.rootSum), "ratio"},
		"harness.trace_spans":          {float64(len(b.tr.spans)), "count"},
	}
}
