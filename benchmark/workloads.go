package main

import (
	"fmt"

	"littletable/internal/clock"
	"littletable/internal/core"
)

// workloadSpec fixes one workload: the system it runs on, the state setup
// builds, and what one measured epoch does. Run length is epochs — fixed
// work — never seconds: --seconds only scales the epoch count through
// epochsPerSecond, so every run at one --seconds does the same operations
// and the count metrics repeat exactly.
type workloadSpec struct {
	name string
	why  string // which layers it stresses and which it must not move

	env    envOptions
	tables []string
	prefix string // AggQuery table-name prefix

	dt           int64 // µs between consecutive rows of one table
	preloadRows  int64 // per table
	preloadBatch int64
	settleSteps  int // ×10 fake minutes of maintenance after the preload

	// setupRuns is how many times an end-to-end run builds the starting
	// state (setup_s is the median): more for the workloads whose setup is
	// short, so each spends about the same time on it.
	setupRuns int

	// epochsPerSecond converts --seconds to epochs; it is sized so the
	// measured phase lasts about --seconds on the 2-vCPU reference sandbox.
	epochsPerSecond int

	// opsPerEpoch is how many client ops of each kind an epoch issues, so
	// the traced run can space its replay sample evenly.
	opsPerEpoch map[string]float64

	prepare func(b *bench)              // seed-dependent query order
	epoch   func(b *bench, i int) error // one measured epoch, tick included
}

const (
	ingestBatch    = 1024
	scanGroupSize  = 5 // devices per scan_cold key range
	dashBatch      = 512
	dashWindow     = clock.Hour
	dashDescLimit  = 100
	dashAggWindow  = 2 * clock.Minute
	dashAggEvery   = 4              // epochs per AggQuery
	fanWindow      = 4 * clock.Hour // one merge period: older periods' tablets are pruned
	fanFirstWindow = 3 * clock.Hour // genBaseTs is 01:00; the first whole period starts at 04:00
	settleStepTime = 10 * clock.Minute
)

var workloads = []*workloadSpec{
	{
		name:   "ingest",
		why:    "batched time-ordered inserts with inline flush and merge: wire insert codec, core insert/uniqueness, memtable, block encode, tablet writer, merge and vfs writes; no reads, so a read-side change must not move it",
		env:    envOptions{shards: 1, flushSize: 448 << 10},
		tables: []string{"usage"}, prefix: "usage",
		dt: 10 * clock.Millisecond, preloadRows: 160_000, preloadBatch: 2000, settleSteps: 3, setupRuns: 5,
		epochsPerSecond: 100,
		opsPerEpoch:     map[string]float64{"insert": 1},
		epoch: func(b *bench, i int) error {
			b.opInsert(b.tables[0], ingestBatch)
			return b.tick()
		},
	},
	{
		name:   "scan_cold",
		why:    "key-range scans over data 30x the block cache: vfs reads, block decode, tablet cursor, core k-way merge, wire row codec; the write path is idle, so a write-side change must not move it",
		env:    envOptions{shards: 1, flushSize: 1 << 20, blockCache: 256 << 10},
		tables: []string{"usage"}, prefix: "usage",
		dt: 150 * clock.Millisecond, preloadRows: 360_000, preloadBatch: 4000, settleSteps: 6, setupRuns: 3,
		epochsPerSecond: 80,
		opsPerEpoch:     map[string]float64{"query": 1},
		prepare:         func(b *bench) { b.order = b.rng.Perm(numDevices / scanGroupSize) },
		epoch: func(b *bench, i int) error {
			d0 := int64(b.order[i%len(b.order)]) * scanGroupSize
			b.opScan(b.tables[0], scanSpec{d0: d0, d1: d0 + scanGroupSize - 1, minTs: core.TsMin, maxTs: core.TsMax})
			return b.tick()
		},
	},
	{
		name:   "dash_mixed",
		why:    "the paper's dashboard shape: inserts interleaved with trailing-window, latest-row and aggregate reads over a working set that fits the block cache; a read gain bought with write cost (or the reverse) shows here",
		env:    envOptions{shards: 1, flushSize: 1 << 20, blockCache: 8 << 20},
		tables: []string{"dash"}, prefix: "dash",
		dt: 20 * clock.Millisecond, preloadRows: 280_000, preloadBatch: 4000, settleSteps: 3, setupRuns: 3,
		epochsPerSecond: 100,
		opsPerEpoch:     map[string]float64{"insert": 1, "query": 4, "latest": 2, "agg": 1.0 / dashAggEvery},
		epoch: func(b *bench, i int) error {
			t := b.tables[0]
			b.opInsert(t, dashBatch)
			now := b.gen.ts(t.n)
			for j := 0; j < 4; j++ {
				d := int64(b.rng.Intn(numDevices))
				s := scanSpec{d0: d, d1: d, minTs: now - dashWindow, maxTs: now}
				if j%2 == 1 {
					s.desc, s.limit = true, dashDescLimit
				}
				b.opScan(t, s)
			}
			for j := 0; j < 2; j++ {
				b.opLatest(t, int64(b.rng.Intn(numDevices)))
			}
			if i%dashAggEvery == 0 {
				b.opAgg(b.spec.prefix, aggSpec(1, clock.Minute), now-dashAggWindow, now, true, false)
			}
			return b.tick()
		},
	},
	{
		name:   "agg_fanout",
		why:    "AggQuery scattered by the router over 8 tables on 2 shards, every 4th op a relayed single-table Query: router scatter/relay, server agg dispatch, agg fold/merge and the agg wire codec; few rows cross the wire",
		env:    envOptions{shards: 2, router: true, flushSize: 1 << 20, blockCache: 16 << 20},
		tables: []string{"fan_0", "fan_1", "fan_2", "fan_3", "fan_4", "fan_5", "fan_6", "fan_7"}, prefix: "fan_",
		// 750 rows × 4.8 s = 1 h: no batch straddles a 4-hour period, so a table
		// never has two filling tablets at once. (The engine seals filling
		// tablets in Go map order, which would make flush grouping — and the
		// number of descriptor writes — differ from run to run.)
		dt: 4800 * clock.Millisecond, preloadRows: 15_000, preloadBatch: 750, settleSteps: 3, setupRuns: 9,
		epochsPerSecond: 40,
		opsPerEpoch:     map[string]float64{"agg": 0.75, "query": 0.25},
		prepare: func(b *bench) {
			// Whole periods the preload covers (at least one, for smoke runs).
			b.order = b.rng.Perm(max(1, int((b.spec.preloadRows*b.spec.dt-fanFirstWindow)/fanWindow)))
		},
		epoch: func(b *bench, i int) error {
			if i%4 == 3 {
				t := b.tables[(i/4)%len(b.tables)]
				d0 := int64(b.rng.Intn(numNetworks)) * devicesPerNetwork
				b.opScan(t, scanSpec{d0: d0, d1: d0 + devicesPerNetwork - 1, minTs: core.TsMin, maxTs: core.TsMax})
			} else {
				lo := b.gen.base + fanFirstWindow + int64(b.order[(i-i/4)%len(b.order)])*fanWindow
				b.opAgg(b.spec.prefix, aggSpec(2, fanWindow), lo, lo+fanWindow-1, true, true)
			}
			return b.tick()
		},
	},
}

func findWorkload(name string) (*workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
