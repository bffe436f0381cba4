package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"syscall"

	"littletable/internal/agg"
)

// config is one invocation's request.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	scale    int    // divides preload and epoch counts; 1 except in smoke tests
	workDir  string // all files the run creates live under here
	setups   int    // how many times setup runs (the median is reported); 0 = the workload's own count
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run reports.
type result struct {
	workload          string
	attempted, failed int64
	firstFailure      string
	endToEnd          map[string]metric
	harness           map[string]metric // the ruler's own diagnostics; never claimed
	perLayer          map[string]metric // traced runs only: every layer metric, harness.* included
	samples           map[string]int    // sample counts behind the percentiles
	traceFile         string
}

// newBench builds a bench for spec on a fresh env; its setup has not run.
func newBench(ctx context.Context, cfg config, spec *workloadSpec, tr *tracer) *bench {
	return &bench{
		ctx:  ctx,
		spec: spec,
		gen:  newGenerator(cfg.seed, spec.dt),
		tr:   tr,
		rng:  rand.New(rand.NewSource(int64(cfg.seed))),
		sc:   benchSchema(),

		aggMemo: map[[2]int64][]agg.Output{},
	}
}

// setup builds the workload's starting state as a calibrated phase:
// servers and tables, the preload (clock following the rows, Tick after
// every round of batches), then maintenance to quiescence.
func (b *bench) setup(dir string) (*phase, error) {
	ph := &phase{kernelReps: setupKernelReps}
	b.ph = ph
	spec := b.spec
	rounds := int(spec.preloadRows / spec.preloadBatch)
	err := ph.run(b.ctx, 1+rounds+spec.settleSteps, func(i int) error {
		switch {
		case i == 0:
			return ph.timed("setup", 0, func() error {
				var err error
				if b.env, err = newEnv(b.ctx, dir, spec.env, b.gen.base, b.tr); err != nil {
					return err
				}
				for idx, name := range spec.tables {
					ct, t, err := b.env.createTable(name, b.sc)
					if err != nil {
						return err
					}
					b.tables = append(b.tables, &tableState{idx: idx, name: name, ct: ct, core: t, shard: b.env.shardOf(name)})
				}
				return nil
			})
		case i <= rounds:
			for _, t := range b.tables {
				b.opInsert(t, spec.preloadBatch)
			}
			return b.tick()
		default:
			b.env.clk.Advance(settleStepTime)
			return ph.timed("setup", 0, func() error {
				for _, t := range b.tables {
					if err := t.core.Tick(); err != nil {
						return err
					}
					if err := t.core.MaintainUntilQuiet(); err != nil {
						return err
					}
				}
				return nil
			})
		}
	})
	if err == nil && b.failed > 0 {
		err = fmt.Errorf("setup: %d operations failed: %s", b.failed, b.firstFailure)
	}
	return ph, err
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// Kernel runs per epoch boundary. Setup has few, long epochs, so it
// samples more at each.
const (
	measureKernelReps = 3
	setupKernelReps   = 6
)

// measured is what the measured phase observed besides its samples.
type measured struct {
	ph         *phase
	allocBytes uint64 // TotalAlloc delta minus the reference kernel's own
	gcCycles   uint32
	cpuSec     float64
	peakHeap   uint64
}

// kernelAllocBytes is what one refKernel call allocates, so the measured
// phase's allocation can be reported net of the ruler's own.
func kernelAllocBytes() uint64 {
	var a, z runtime.MemStats
	runtime.ReadMemStats(&a)
	const runs = 8
	for i := 0; i < runs; i++ {
		refKernel()
	}
	runtime.ReadMemStats(&z)
	return (z.TotalAlloc - a.TotalAlloc) / runs
}

// measure runs the measured phase: epochs of fixed work, each ending with
// the inline Tick. In a traced run alternate blocks of epochs record spans
// and time the filesystem, so tracing overhead is the ratio of the two
// halves' throughput under the same drift.
func (b *bench) measure(epochs int, traced bool) (*measured, error) {
	if b.spec.prepare != nil {
		b.spec.prepare(b)
	}
	perKernel := kernelAllocBytes()
	runtime.GC()
	b.rowsIn, b.rowsOut, b.rowsFolded, b.aggGroups, b.aggOps = 0, 0, 0, 0, 0
	m := &measured{ph: &phase{kernelReps: measureKernelReps}}
	b.ph, b.epochs, b.kindSeen = m.ph, epochs, map[string]int{}
	if b.rp != nil {
		b.rp.ph = m.ph
	}
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	var before, after runtime.MemStats
	b.before = b.snapshot()
	runtime.ReadMemStats(&before)
	cpu0 := cpuSeconds()
	err := m.ph.run(b.ctx, epochs, func(i int) error {
		on := traced && tracedEpoch(i) == 1
		b.tracing = on
		if b.tr != nil {
			b.tr.on.Store(on)
			b.env.fs.timed.Store(on)
		}
		if i%16 == 0 {
			metrics.Read(heap)
			if v := heap[0].Value.Uint64(); v > m.peakHeap {
				m.peakHeap = v
			}
		}
		return b.spec.epoch(b, i)
	})
	if b.tr != nil {
		b.tr.on.Store(false)
		b.env.fs.timed.Store(false)
	}
	b.tracing = false
	m.cpuSec = cpuSeconds() - cpu0
	runtime.ReadMemStats(&after)
	m.allocBytes = after.TotalAlloc - before.TotalAlloc - perKernel*uint64(len(m.ph.kernelNs)*measureKernelReps)
	m.gcCycles = after.NumGC - before.NumGC
	return m, err
}

// finish makes every inserted row durable (so disk bytes cover all user
// bytes) and cross-checks the tables' row counts against the generator.
func (b *bench) finish() error {
	for _, t := range b.tables {
		if err := t.core.FlushAll(); err != nil {
			return err
		}
		b.attempted++
		if got := t.core.RowEstimate(); got != t.n {
			b.fail("table %s holds %d rows, generator inserted %d", t.name, got, t.n)
		}
	}
	return nil
}

// runWorkload performs one complete run of a workload and returns its
// metrics. It owns everything it creates under cfg.workDir.
func runWorkload(ctx context.Context, cfg config) (*result, error) {
	spec, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.scale > 1 {
		scaled := *spec
		scaled.preloadRows = spec.preloadRows / int64(cfg.scale) / spec.preloadBatch * spec.preloadBatch
		if scaled.preloadRows < 2*spec.preloadBatch {
			scaled.preloadRows = 2 * spec.preloadBatch
		}
		spec = &scaled
	}
	epochs := spec.epochsPerSecond * cfg.seconds / cfg.scale
	if epochs < 2*traceBlock { // smoke runs still get a traced block
		epochs = 2 * traceBlock
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}

	// Setup runs several times, each on a fresh directory; the median
	// calibrated time is reported and the last instance is measured.
	var b *bench
	var setupSecs []float64
	setups := cfg.setups
	if setups == 0 {
		setups = spec.setupRuns
	}
	for i := 0; i < setups; i++ {
		if b != nil {
			if err := b.env.close(); err != nil {
				return nil, err
			}
		}
		b = newBench(ctx, cfg, spec, tr)
		dir := filepath.Join(cfg.workDir, fmt.Sprintf("%s-%d", spec.name, i)) // the previous instance's is gone
		ph, err := b.setup(dir)
		if b.env != nil && err != nil {
			b.env.close()
		}
		if err != nil {
			return nil, err
		}
		setupSecs = append(setupSecs, ph.calSeconds())
	}
	defer b.env.close()

	if cfg.trace {
		if b.rp, err = newReplayer(b, cfg); err != nil {
			return nil, err
		}
		defer b.rp.close()
	}
	m, err := b.measure(epochs, cfg.trace)
	if err != nil {
		return nil, err
	}
	if err := b.finish(); err != nil {
		return nil, err
	}
	res := &result{workload: spec.name, samples: map[string]int{}}
	if err := b.endToEnd(res, m, median(setupSecs)); err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := b.perLayer(res, m, cfg); err != nil {
			return nil, err
		}
	}
	res.attempted, res.failed, res.firstFailure = b.attempted, b.failed, b.firstFailure
	return res, nil
}

// endToEnd computes the seven end-to-end metrics.
func (b *bench) endToEnd(res *result, m *measured, setupSec float64) error {
	rows := float64(b.rowsIn + b.rowsOut + b.rowsFolded)
	ops := m.ph.calMs("")
	disk, err := b.env.diskBytes()
	if err != nil {
		return err
	}
	res.samples["ops"] = len(ops)
	lo, hi := m.ph.driftRange()
	raw := m.ph.rawMs("")
	res.harness = map[string]metric{
		"harness.ref_kernel_us_p50": {median(append([]float64(nil), m.ph.kernelNs...)) / 1e3, "us"},
		"harness.drift_min":         {lo, "ratio"},
		"harness.drift_max":         {hi, "ratio"},
		"harness.raw_rows_per_s":    {rows / m.ph.rawSeconds(), "rows/s"},
		"harness.raw_op_p50_ms":     {percentile(raw, 50), "ms"},
		"harness.op_p99_ms":         {percentile(ops, 99), "ms"},
		"harness.cpu_us_per_row":    {m.cpuSec * 1e6 / rows, "us/row"},
		"harness.peak_heap_mb":      {float64(m.peakHeap) / (1 << 20), "MB"},
		"harness.gc_cycles":         {float64(m.gcCycles), "count"},
		"harness.epochs":            {float64(len(m.ph.epochNs)), "count"},
	}
	res.endToEnd = map[string]metric{
		"setup_s":                   {setupSec, "s"},
		"rows_per_s":                {rows / m.ph.calSeconds(), "rows/s"},
		"op_p50_ms":                 {percentile(ops, 50), "ms"},
		"op_p90_ms":                 {percentile(ops, 90), "ms"},
		"alloc_bytes_per_row":       {float64(m.allocBytes) / rows, "B/row"},
		"write_bytes_per_user_byte": {float64(b.env.fs.writeBytes.Load()) / float64(b.userBytes), "ratio"},
		"disk_bytes_per_user_byte":  {float64(disk) / float64(b.userBytes), "ratio"},
	}
	return nil
}
