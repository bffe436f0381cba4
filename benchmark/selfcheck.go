package main

import (
	"context"
	"fmt"
	"os"
	"sort"
)

// metricKind says how a metric is expected to repeat.
type metricKind int

const (
	timing metricKind = iota // calibrated wall time: repeats to a few percent
	alloc                    // heap bytes: exact but for scheduling-dependent prefetch and pooling
	count                    // bytes and rows through deterministic code paths: exact
)

// metricDef declares one end-to-end metric: the contract BENCHMARK.json
// repeats. bound is the share of the parent's median by which a later
// change may worsen the metric before it counts as a regression.
type metricDef struct {
	name, unit string
	higher     bool // higher is better
	bound      float64
	kind       metricKind
}

// The timing bounds are three times the widest interquartile spread seen
// over ten seeds while the machine was at its noisiest (NOISE.md); setup_s
// has the largest because it has the fewest kernel samples to calibrate by.
var endToEndDefs = []metricDef{
	{"setup_s", "s", false, 0.25, timing},
	{"rows_per_s", "rows/s", true, 0.2, timing},
	{"op_p50_ms", "ms", false, 0.2, timing},
	{"op_p90_ms", "ms", false, 0.25, timing},
	{"alloc_bytes_per_row", "B/row", false, 0.02, alloc},
	{"write_bytes_per_user_byte", "ratio", false, 0.02, count},
	{"disk_bytes_per_user_byte", "ratio", false, 0.02, count},
}

// Selfcheck limits. A timing metric is judged as the driver judges it —
// interquartile range ÷ median — against half its bound; an allocation or
// count metric on its full range.
const (
	selfcheckAllocTolerance = 0.005
	selfcheckCountTolerance = 0.001
)

// quartiles returns the first and third quartile by the rule of Python's
// statistics.quantiles(xs, n=4) — the driver's — sorting xs in place.
func quartiles(xs []float64) (q1, q3 float64) {
	sort.Float64s(xs)
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		j, delta := i*(n+1)/4, i*(n+1)%4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// selfcheck runs the whole suite n times at one seed and reports, per
// workload × metric, min / median / max, (max−min)/median and the
// interquartile spread. It fails when a metric is noisier than its limit:
// a metric that cannot meet it is not fit to be an end-to-end metric and
// belongs under harness.*.
func selfcheck(ctx context.Context, cfg config, n int) int {
	bad := 0
	fmt.Printf("selfcheck: %d runs per workload, seed %d, --seconds %d\n\n", n, cfg.seed, cfg.seconds)
	for _, w := range workloads {
		cfg.workload = w.name
		series := map[string][]float64{}
		for i := 0; i < n; i++ {
			res, err := runWorkload(ctx, cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s run %d: %v\n", w.name, i, err)
				return 1
			}
			if res.failed > 0 {
				fmt.Fprintf(os.Stderr, "benchmark: %s run %d: %d of %d ops failed: %s\n", w.name, i, res.failed, res.attempted, res.firstFailure)
				return 1
			}
			for k, m := range res.endToEnd {
				series[k] = append(series[k], m.Value)
			}
			for k, m := range res.harness {
				series[k] = append(series[k], m.Value)
			}
			fmt.Printf("    %s run %d: drift %.3f–%.3f, rows_per_s %.0f (raw %.0f), op_p50_ms %.4f (raw %.4f)\n", w.name, i+1,
				res.harness["harness.drift_min"].Value, res.harness["harness.drift_max"].Value,
				res.endToEnd["rows_per_s"].Value, res.harness["harness.raw_rows_per_s"].Value,
				res.endToEnd["op_p50_ms"].Value, res.harness["harness.raw_op_p50_ms"].Value)
		}
		fmt.Printf("\n| %s | unit | min | median | max | (max−min)/median | IQR/median | limit | |\n|---|---|---|---|---|---|---|---|---|\n", w.name)
		row := func(name, unit string, kind metricKind, limit float64) {
			xs := append([]float64(nil), series[name]...)
			q1, q3 := quartiles(xs)
			med := median(xs)
			spread, iqr := 0.0, 0.0
			if med != 0 {
				spread, iqr = (xs[len(xs)-1]-xs[0])/med, (q3-q1)/med
			}
			lim, verdict := "—", ""
			if limit > 0 {
				judged, on := spread, "range"
				if kind == timing {
					judged, on = iqr, "IQR"
				}
				lim, verdict = fmt.Sprintf("%s ≤ %.2f %%", on, 100*limit), "ok"
				if judged > limit {
					verdict = "TOO NOISY"
					bad++
				}
			}
			fmt.Printf("| %s | %s | %.6g | %.6g | %.6g | %.2f %% | %.2f %% | %s | %s |\n",
				name, unit, xs[0], med, xs[len(xs)-1], 100*spread, 100*iqr, lim, verdict)
		}
		for _, d := range endToEndDefs {
			limit := map[metricKind]float64{timing: d.bound / 2, alloc: selfcheckAllocTolerance, count: selfcheckCountTolerance}[d.kind]
			row(d.name, d.unit, d.kind, limit)
		}
		// The uncalibrated twins, to show the calibration earns its keep,
		// and the diagnostics that were tried as end-to-end metrics.
		row("harness.raw_rows_per_s", "rows/s", timing, 0)
		row("harness.raw_op_p50_ms", "ms", timing, 0)
		row("harness.op_p99_ms", "ms", timing, 0)
		row("harness.cpu_us_per_row", "us/row", timing, 0)
		fmt.Println()
	}
	if bad > 0 {
		fmt.Printf("selfcheck: %d metric(s) too noisy\n", bad)
		return 1
	}
	fmt.Println("selfcheck: every end-to-end metric within its limit")
	return 0
}
