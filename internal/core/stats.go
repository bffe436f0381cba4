package core

import (
	"sync/atomic"

	"littletable/internal/block"
	"littletable/internal/metric"
)

// statFields is the per-table counter list, exported for the
// production-metrics reproduction (§5.2): scan efficiency (Figure 9),
// insert/query rates (§5.2.3), and merge write amplification (§5.1.3).
// Each counter is declared here and nowhere else: the tag carries the
// name, help text and kind that the snapshot, the wire payload, /metrics
// and SHOW STATS are all derived from (see internal/metric). Adding a
// counter is one line in this struct plus its increment sites.
type statFields[T any] struct {
	RowsInserted   T `metric:"rows_inserted" help:"Rows inserted"`
	RowsReturned   T `metric:"rows_returned" help:"Rows returned to queries"`
	RowsScanned    T `metric:"rows_scanned" help:"Rows scanned by queries"`
	Queries        T `metric:"queries" help:"Queries executed"`
	TabletsFlushed T `metric:"tablets_flushed" help:"Memtables flushed to disk tablets"`
	Merges         T `metric:"merges" help:"Tablet merges performed"`
	RowsRewritten  T `metric:"rows_rewritten" help:"Rows rewritten by merges"`
	UniqueFastNew  T `metric:"unique_fast_newest" help:"Uniqueness via newest-timestamp fast path"`
	UniqueFastKey  T `metric:"unique_fast_key" help:"Uniqueness via largest-key fast path"`
	UniqueBloom    T `metric:"unique_bloom" help:"Uniqueness resolved by Bloom filters alone"`
	UniqueProbes   T `metric:"unique_probes" help:"Uniqueness requiring a point read"`
	BytesFlushed   T `metric:"bytes_flushed" help:"Bytes written by flushes"`
	BytesMerged    T `metric:"bytes_merged" help:"Bytes written by merges"`
	TabletsExpired T `metric:"tablets_expired" help:"Tablets reclaimed by TTL"`

	// Robustness: how the table has coped with bad storage.
	TabletsQuarantined T `metric:"tablets_quarantined" help:"Corrupt tablets set aside at open"`
	FlushFailures      T `metric:"flush_failures" help:"Flush attempts that failed"`
	MergeFailures      T `metric:"merge_failures" help:"Merge attempts that failed"`
	MergeRetries       T `metric:"merge_retries" help:"Merge attempts made after a failure"`
	FaultRecoveries    T `metric:"fault_recoveries" help:"Flush/merge successes after failures"`
	ReadErrors         T `metric:"read_errors" help:"Query-time tablet read errors"`

	// Parallel read path.
	BlocksRead    T `metric:"blocks_read" help:"Blocks obtained by query cursors"`
	PrefetchHits  T `metric:"prefetch_hits" help:"Blocks served by prefetch pipelines"`
	ParallelOpens T `metric:"parallel_opens" help:"Tablet sources opened by query worker pools"`

	// Write pipeline: seal/flush, backpressure.
	InsertBatches      T `metric:"insert_batches" help:"Insert batches applied"`
	TabletsSealed      T `metric:"tablets_sealed" help:"Memtables sealed for flushing"`
	AsyncFlushes       T `metric:"async_flushes" help:"Flush groups written by background workers"`
	BackpressureStalls T `metric:"backpressure_stalls" help:"Inserts stalled on the unflushed backlog caps"`
	CommitFailures     T `metric:"commit_failures" help:"Descriptor writes that failed; the change stays in memory and is retried"`

	// Maintenance scheduler: queue delay.
	MergeWaitNs  T `metric:"merge_wait_ns" help:"Nanoseconds merge-eligible periods waited for a worker"`
	ExpiryWaitNs T `metric:"expiry_wait_ns" help:"Nanoseconds due TTL expiry waited for a worker"`
	ExpiryRuns   T `metric:"expiry_runs" help:"TTL expiry rounds that reclaimed tablets"`

	// Migration: sealed tablets shipped in from another shard.
	TabletsInstalled T `metric:"tablets_installed" help:"Sealed tablets received from another shard and published"`
	BytesInstalled   T `metric:"bytes_installed" help:"Bytes of tablets received from another shard"`

	// Block encoding, across flushes, merges and retention rewrites.
	BlocksEncoded         T `metric:"blocks_encoded" help:"Blocks finished by tablet writers"`
	BlocksEncodedColumnar T `metric:"blocks_encoded_columnar" help:"Blocks that chose the columnar layout"`
	BytesBeforeEncode     T `metric:"bytes_before_encode" help:"Legacy-image bytes before codec selection"`
	BytesAfterEncode      T `metric:"bytes_after_encode" help:"Bytes of the chosen block images"`
	ColumnsDeltaEncoded   T `metric:"columns_delta_encoded" help:"Columns written delta-of-delta"`
	ColumnsXOREncoded     T `metric:"columns_xor_encoded" help:"Columns written as XOR bitstreams"`
	ColumnsDictEncoded    T `metric:"columns_dict_encoded" help:"Columns written dictionary or lzf"`
	ColumnsPlainEncoded   T `metric:"columns_plain_encoded" help:"Columns that fell back to plain encoding"`

	// Aggregation and downsampling. Agg* count the MsgAggQuery read path per
	// scanned table; Rollup* count the continuous-downsampling jobs with this
	// table as the source.
	AggQueries        T `metric:"agg_queries" help:"Aggregation queries that scanned this table"`
	AggRowsFolded     T `metric:"agg_rows_folded" help:"Rows folded into group states by aggregation queries"`
	RollupRuns        T `metric:"rollup_runs" help:"Rollup job runs that wrote buckets from this table"`
	RollupRowsWritten T `metric:"rollup_rows_written" help:"Rows written into rollup destination tables"`

	// Gauges the maintenance workers keep.
	MergesInFlight   T `metric:"merges_in_flight" help:"Merges running right now" kind:"gauge"`
	ExpiriesInFlight T `metric:"expiries_in_flight" help:"TTL expiry rounds running right now" kind:"gauge"`
}

// Stats are a table's live counters; increment with Add, read one with
// Load or all of them with Snapshot.
type Stats statFields[atomic.Int64]

// StatsSnapshot is a plain copy of the counters at one instant.
type StatsSnapshot statFields[int64]

// addEncode folds a tablet writer's encoder report into the counters.
func (s *Stats) addEncode(e block.EncodeStats) {
	s.BlocksEncoded.Add(e.Blocks)
	s.BlocksEncodedColumnar.Add(e.ColumnarBlocks)
	s.BytesBeforeEncode.Add(e.BytesBefore)
	s.BytesAfterEncode.Add(e.BytesAfter)
	s.ColumnsDeltaEncoded.Add(e.ColsDelta)
	s.ColumnsXOREncoded.Add(e.ColsXOR)
	s.ColumnsDictEncoded.Add(e.ColsDict)
	s.ColumnsPlainEncoded.Add(e.ColsPlain)
}

// Snapshot copies the counters.
func (s *Stats) Snapshot() StatsSnapshot {
	var out StatsSnapshot
	metric.Snapshot(&out, s)
	return out
}

// ScanRatio returns rows scanned / rows returned across all queries so far,
// the per-table quantity behind Figure 9. Returns 0 with no returned rows.
func (s StatsSnapshot) ScanRatio() float64 {
	if s.RowsReturned == 0 {
		return 0
	}
	return float64(s.RowsScanned) / float64(s.RowsReturned)
}

// WriteAmplification returns total bytes written (flushes + merges) per
// byte flushed, the quantity behind Figure 3's equilibrium analysis.
func (s StatsSnapshot) WriteAmplification() float64 {
	if s.BytesFlushed == 0 {
		return 0
	}
	return float64(s.BytesFlushed+s.BytesMerged) / float64(s.BytesFlushed)
}

// tableGauges are the metrics read off the table's state when someone
// asks, rather than counted as events happen.
type tableGauges struct {
	SealedBytes      int64 `metric:"sealed_bytes" help:"Sealed-but-unflushed memtable bytes" kind:"gauge"`
	FlushQueueDepth  int64 `metric:"flush_queue_depth" help:"Sealed flush groups awaiting commit" kind:"gauge"`
	DiskTablets      int64 `metric:"disk_tablets" help:"On-disk tablets" kind:"gauge"`
	MemTablets       int64 `metric:"mem_tablets" help:"In-memory tablets" kind:"gauge"`
	DiskBytes        int64 `metric:"disk_bytes" help:"On-disk size" kind:"gauge"`
	RowEstimate      int64 `metric:"row_estimate" help:"Approximate row count" kind:"gauge"`
	BlockCacheHits   int64 `metric:"block_cache_hits" help:"Block cache hits"`
	BlockCacheMisses int64 `metric:"block_cache_misses" help:"Block cache misses"`
}

// Metrics returns everything the table reports — its counters, then the
// gauges computed from its current state — in one list. The server's
// stats message, /metrics and SHOW STATS are loops over it.
func (t *Table) Metrics() metric.List {
	g := tableGauges{
		SealedBytes:     t.SealedBytes(),
		FlushQueueDepth: int64(t.FlushQueueDepth()),
		DiskTablets:     int64(t.DiskTabletCount()),
		MemTablets:      int64(t.MemTabletCount()),
		DiskBytes:       t.DiskBytes(),
		RowEstimate:     t.RowEstimate(),
	}
	g.BlockCacheHits, g.BlockCacheMisses = t.BlockCacheStats()
	return metric.Read(&t.stats, &g)
}

// MetricFamilies is the list Metrics returns with every value zero: what
// an exporter describes while no table exists yet.
func MetricFamilies() metric.List { return metric.Read(&Stats{}, &tableGauges{}) }
