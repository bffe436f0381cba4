package main

import (
	"context"
	"time"
)

// sample is one timed section inside an epoch: a client operation, the
// inline Tick, a setup step, or a replay.
type sample struct {
	name  string // static: "insert", "query", "tick", "core.query", …
	epoch int32
	rows  int64
	ns    int64 // raw wall time
	first int64 // queries: raw ns to the first row; else 0
}

// phase is a run of epochs bracketed by reference-kernel samples. An
// epoch's time is the sum of its timed sections — the harness's own work
// between them (row generation, the oracle) is not counted.
type phase struct {
	// kernelReps is how many times the reference kernel runs at each epoch
	// boundary; the boundary's sample is their mean. One kernel run is a
	// noisy reading (its p95 is 3× its median when a GC cycle overlaps
	// it), and that sampling noise — 1.2–2.9 % of a whole run's calibrated
	// total at one run per boundary — was as large as everything else the
	// calibration leaves behind.
	kernelReps int

	kernelNs []float64 // epochs+1 samples once run returns
	epochNs  []float64
	samples  []sample

	drift []float64 // per epoch, filled when run returns
}

// run executes n epochs. The kernel runs before every epoch and after
// the last, on the measuring goroutine.
func (p *phase) run(ctx context.Context, n int, body func(i int) error) error {
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		p.kernelNs = append(p.kernelNs, p.kernel())
		p.epochNs = append(p.epochNs, 0)
		if err := body(i); err != nil {
			return err
		}
	}
	p.kernelNs = append(p.kernelNs, p.kernel())
	p.drift = driftFactors(p.kernelNs)
	return nil
}

// kernel takes one boundary sample: the mean of kernelReps kernel runs.
func (p *phase) kernel() float64 {
	var ns time.Duration
	for i := 0; i < p.kernelReps; i++ {
		ns += refKernel()
	}
	return float64(ns) / float64(p.kernelReps)
}

// record adds a finished timed section to the current epoch.
func (p *phase) record(name string, rows int64, d, first time.Duration) {
	e := len(p.epochNs) - 1
	p.epochNs[e] += float64(d)
	p.samples = append(p.samples, sample{name: name, epoch: int32(e), rows: rows, ns: int64(d), first: int64(first)})
}

// note adds a sample to the current epoch without charging its time to
// the epoch: replays, which are calibrated but not measured work.
func (p *phase) note(name string, rows int64, d time.Duration) {
	p.samples = append(p.samples, sample{name: name, epoch: int32(len(p.epochNs) - 1), rows: rows, ns: int64(d)})
}

// timed runs fn as one timed section of the current epoch.
func (p *phase) timed(name string, rows int64, fn func() error) error {
	start := time.Now()
	err := fn()
	p.record(name, rows, time.Since(start), 0)
	return err
}

// rawSeconds is the unadjusted sum of epoch times.
func (p *phase) rawSeconds() float64 {
	var s float64
	for _, ns := range p.epochNs {
		s += ns
	}
	return s / 1e9
}

// calSeconds is Σ epoch time ÷ epoch drift: totals, not epoch medians, so
// flushes and merges that land in a minority of epochs still count.
func (p *phase) calSeconds() float64 {
	var s float64
	for i, ns := range p.epochNs {
		s += ns / p.drift[i]
	}
	return s / 1e9
}

// isClientOp reports whether a sample is a client operation — what the
// op_p50/op_p90 percentiles are taken over — rather than the inline tick,
// a setup step or a replay.
func isClientOp(name string) bool {
	return name == "insert" || name == "query" || name == "latest" || name == "agg"
}

// pick selects samples by name; "" selects every client operation.
func (p *phase) pick(name string) []sample {
	var out []sample
	for _, s := range p.samples {
		if s.name == name || (name == "" && isClientOp(s.name)) {
			out = append(out, s)
		}
	}
	return out
}

// ms maps the named samples to milliseconds through ns.
func (p *phase) ms(name string, ns func(s sample) float64) []float64 {
	ss := p.pick(name)
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ns(s) / 1e6
	}
	return out
}

// calMs returns the calibrated latencies, in ms, of the named samples.
func (p *phase) calMs(name string) []float64 {
	return p.ms(name, func(s sample) float64 { return float64(s.ns) / p.drift[s.epoch] })
}

// calFirstMs is calMs over the time-to-first-row of the named samples.
func (p *phase) calFirstMs(name string) []float64 {
	return p.ms(name, func(s sample) float64 { return float64(s.first) / p.drift[s.epoch] })
}

// rawMs is calMs without the drift correction.
func (p *phase) rawMs(name string) []float64 {
	return p.ms(name, func(s sample) float64 { return float64(s.ns) })
}

func (p *phase) driftRange() (lo, hi float64) {
	for i, d := range p.drift {
		if i == 0 || d < lo {
			lo = d
		}
		if i == 0 || d > hi {
			hi = d
		}
	}
	return lo, hi
}
