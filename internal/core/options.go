// Package core implements the LittleTable table engine (§3): tables as
// unions of in-memory and on-disk tablets, two-dimensional clustering by
// timestamp and primary key, flush-dependency tracking for prefix
// durability, the time-period-aware merge policy, TTL expiry, primary-key
// uniqueness enforcement, bounded 2-D queries, and latest-row lookups.
package core

import (
	"log"

	"littletable/internal/block"
	"littletable/internal/clock"
	"littletable/internal/tablet"
	"littletable/internal/vfs"
)

// Defaults from the paper.
const (
	// DefaultFlushSize: "we set the default flush size to 16 MB, which is
	// large enough to sustain roughly 95% of the disk's peak write rate"
	// (§3.3).
	DefaultFlushSize = 16 << 20

	// DefaultFlushAge: "LittleTable by default flushes an in-memory tablet
	// no longer than 10-minutes after it first adds a row" (§3.4.1).
	DefaultFlushAge = 10 * clock.Minute

	// DefaultMaxTabletSize: "limits merged tablet sizes to 128 MB, its
	// default settings" (§5.1.3).
	DefaultMaxTabletSize = 128 << 20

	// DefaultMergeDelay: "LittleTable waits until 90 seconds after a tablet
	// is written before merging it" (§5.1.3).
	DefaultMergeDelay = 90 * clock.Second

	// DefaultMaxPendingTablets caps frozen tablets awaiting flush; §5.1.3
	// limits memory "so that at any time there are at most 100 outstanding
	// tablets waiting to be flushed to disk".
	DefaultMaxPendingTablets = 100

	// DefaultQueryParallelism is how many tablet sources a query opens and
	// positions concurrently; a query over one tablet opens it inline.
	// Opening a tablet source costs up to four reads (§3.5's footer seeks
	// plus the first block), independent per tablet until the merge
	// point, so overlapping them cuts first-row latency on multi-tablet
	// queries.
	DefaultQueryParallelism = 4

	// DefaultPrefetchDepth is how many blocks each on-disk tablet source
	// of a query or merge reads ahead of its cursor. While the single
	// merge goroutine drains one source, the others' pipelines keep
	// loading, hiding block latency behind the merge.
	DefaultPrefetchDepth = 2

	// DefaultMaxUnflushedBytes caps sealed-but-unflushed memtable bytes.
	// Inserters that would push the backlog past the cap stall (counted in
	// Stats.BackpressureStalls) and flush until it is back under the cap,
	// bounding memory the way §5.1.3's 100-outstanding-tablets rule does,
	// but in bytes.
	DefaultMaxUnflushedBytes = 256 << 20
)

// Options configure a Table. The zero value of each field selects the
// paper's default.
type Options struct {
	// Clock supplies engine time; defaults to the wall clock.
	Clock clock.Clock

	// FlushSize is the in-memory tablet size that triggers a flush.
	FlushSize int

	// FlushAge is the maximum age of an in-memory tablet before flushing,
	// bounding crash data loss.
	FlushAge int64

	// MaxTabletSize caps merged tablet output size.
	MaxTabletSize int64

	// MergeDelay is the minimum age of an on-disk tablet before it may be
	// merged, so each merge sees more input.
	MergeDelay int64

	// MaxPendingTablets caps frozen tablets awaiting flush; inserts flush
	// synchronously beyond it (backpressure).
	MaxPendingTablets int

	// FlushWorkers is the number of background flush workers. 0 (the
	// default) keeps the seed's synchronous model: sealed tablets are
	// written by the maintenance ticker or by the inserter that trips
	// backpressure. With workers, a filling tablet that reaches FlushSize
	// is sealed, swapped for a fresh memtable, and written to disk in the
	// background while inserts continue; the flush-dependency graph's
	// seal order still decides descriptor commit order, so the §3.1
	// prefix-durability guarantee is unchanged.
	FlushWorkers int

	// MergeWorkers is the number of background maintenance workers running
	// merges and TTL expiry. 0 (the default) keeps the serial model:
	// maintenance runs inline in Tick, one merge at a time. With workers,
	// merges on disjoint time periods of the same table proceed in
	// parallel — the §3.4.2 policy never merges across periods, so two
	// merges on different periods share no input tablets — while the
	// `busy` flags and mu-serialized descriptor commits keep recovery and
	// open cursors correct exactly as in the serial engine.
	MergeWorkers int

	// MaxUnflushedBytes caps the encoded bytes of sealed-but-unflushed
	// tablets. Inserters block once the backlog exceeds it, so a slow disk
	// produces bounded memory and a stall counter instead of an OOM.
	// 0 selects the default; negative disables the cap.
	MaxUnflushedBytes int64

	// BlockSize is the on-disk block size; default 64 kB.
	BlockSize int

	// BlockCacheBytes enables a per-table LRU over parsed blocks. The
	// paper's deployment leans on the OS page cache; an explicit cache
	// additionally skips checksum, decompression, and parsing on repeat
	// reads, and deduplicates concurrent loads of the same block
	// (singleflight). 0 disables it.
	BlockCacheBytes int64

	// DisableCompression turns off lzf for blocks and footers.
	DisableCompression bool

	// DisableBloom turns off per-tablet Bloom filters.
	DisableBloom bool

	// SyncWrites fsyncs tablets and descriptors. LittleTable trades
	// durability for write load (§2.3.4); off by default like production.
	SyncWrites bool

	// FS abstracts filesystem access for every file the table touches —
	// tablets, descriptor, cold tiers. nil selects the real OS filesystem;
	// tests inject fault-injecting (vfs.FaultFS) or crash-simulating
	// (vfs.MemFS) implementations.
	FS vfs.FS

	// Logf sinks engine warnings: quarantined tablets, merge retries.
	// Default log.Printf.
	Logf func(format string, args ...interface{})

	// VerifyOnOpen reads and checksums every block of every tablet during
	// OpenTable, so latent corruption (a bit-flipped block that footer
	// loading cannot see) is quarantined up front instead of surfacing as
	// query errors later. It makes open cost proportional to table size;
	// off by default.
	VerifyOnOpen bool

	// MergeAcrossPeriods is an ABLATION switch: it disables the time-period
	// isolation of §3.4.2, making the merge policy behave like the systems
	// the paper contrasts with, whose "merge policies aim to combine as
	// many tablets as possible" (§6). Old and new rows then share tablets,
	// and recent-window queries scan rows they do not return. Benchmarks
	// only; never enable in production use.
	MergeAcrossPeriods bool
}

func (o Options) withDefaults() Options {
	if o.Clock == nil {
		o.Clock = clock.Real{}
	}
	if o.FlushSize == 0 {
		o.FlushSize = DefaultFlushSize
	}
	if o.FlushAge == 0 {
		o.FlushAge = DefaultFlushAge
	}
	if o.MaxTabletSize == 0 {
		o.MaxTabletSize = DefaultMaxTabletSize
	}
	if o.MergeDelay == 0 {
		o.MergeDelay = DefaultMergeDelay
	}
	if o.MaxPendingTablets == 0 {
		o.MaxPendingTablets = DefaultMaxPendingTablets
	}
	if o.BlockSize == 0 {
		o.BlockSize = block.TargetSize
	}
	if o.MaxUnflushedBytes == 0 {
		o.MaxUnflushedBytes = DefaultMaxUnflushedBytes
	}
	if o.FS == nil {
		o.FS = vfs.OsFS{}
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
	return o
}

// tabletWriter returns the options every tablet the table writes is
// created with: rows, an upper bound on the rows it will hold, presizes the
// writer's Bloom hash buffer.
func (o Options) tabletWriter(rows int64) tablet.WriterOptions {
	return tablet.WriterOptions{
		BlockSize:          o.BlockSize,
		DisableCompression: o.DisableCompression,
		DisableBloom:       o.DisableBloom,
		Sync:               o.SyncWrites,
		FS:                 o.FS,
		RowsHint:           int(rows),
	}
}

// maxUnflushedBytes returns the effective backlog cap (0 = unlimited).
func (o Options) maxUnflushedBytes() int64 {
	if o.MaxUnflushedBytes < 0 {
		return 0
	}
	return o.MaxUnflushedBytes
}
