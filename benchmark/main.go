// Command benchmark is LittleTable's fixed performance ruler: four
// closed-loop, single-client workloads driven through the real path
// (client → wire → router → server → core → memtable/tablet/block/
// blockcache → vfs.OsFS, loopback TCP, one process), seven end-to-end
// metrics per workload with drift-calibrated timings, an oracle that
// checks every result against the seeded generator, and a separate traced
// mode that attributes time to layers by nested replay. See README.md.
//
// The driver contract (BENCHMARK.json) is
//
//	benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// which prints the metrics by name and unit and, as the last line of
// standard output, one JSON object {correct, attempted, failed, metrics}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"sort"
	"syscall"

	"littletable/internal/vfs"
)

const (
	defaultSeed    = 1
	holdOutSeed    = 20170514 // never used while tuning the suite
	defaultSeconds = 10
	defaultWorkDir = ".bench_build/run"
)

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run: ingest, scan_cold, dash_mixed, agg_fanout (empty = all four)")
		seed      = flag.Uint64("seed", defaultSeed, fmt.Sprintf("generator seed (%d is the hold-out: use it only to confirm a result)", holdOutSeed))
		seconds   = flag.Int("seconds", defaultSeconds, "nominal length of the measured phase; scales the fixed epoch count")
		trace     = flag.Int("trace", 0, "1 = traced run: per-layer metrics and a span file instead of the end-to-end metrics")
		selfcheck = flag.Int("selfcheck", 0, "run the whole suite N times and report each metric's spread; non-zero exit if too noisy")
		workDir   = flag.String("workdir", defaultWorkDir, "directory for data, removed on exit; must be inside the checkout")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 {
		flag.Usage()
		os.Exit(2)
	}
	// Fixed runtime (README rule 5): GOGC is pinned whatever the environment says.
	debug.SetGCPercent(100)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, *workload, *seed, *seconds, *trace != 0, *selfcheck, *workDir)
	stop()
	os.Exit(code)
}

// run is main without os.Exit, so deferred cleanup always happens.
func run(ctx context.Context, workload string, seed uint64, seconds int, trace bool, selfcheckN int, workDir string) int {
	// One directory per process, so concurrent invocations never collide;
	// removed on every exit path (signals cancel ctx and unwind here).
	dir := filepath.Join(workDir, fmt.Sprintf("p%d", os.Getpid()))
	fsys := vfs.OsFS{}
	if err := fsys.MkdirAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer fsys.RemoveAll(dir)

	cfg := config{seed: seed, seconds: seconds, trace: trace, scale: 1, workDir: dir}
	if trace {
		cfg.setups = 1 // setup_s is an end-to-end metric; the traced run does not report it
	}
	if selfcheckN > 0 {
		return selfcheck(ctx, cfg, selfcheckN)
	}
	names := []string{workload}
	if workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	code := 0
	for _, name := range names {
		cfg.workload = name
		res, err := runWorkload(ctx, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
			return 1
		}
		res.print(os.Stdout, trace)
		if res.failed > 0 {
			code = 1
		}
	}
	return code
}

// print writes the human-readable metric list and then the driver's JSON
// line: the end-to-end metrics, or in a traced run the per-layer ones.
func (r *result) print(w *os.File, trace bool) {
	ms := r.endToEnd
	if trace {
		ms = r.perLayer
	}
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "workload %s: %d ops attempted, %d failed", r.workload, r.attempted, r.failed)
	for k, n := range r.samples {
		fmt.Fprintf(w, ", %d %s samples", n, k)
	}
	fmt.Fprintln(w)
	if r.firstFailure != "" {
		fmt.Fprintf(w, "  first failure: %s\n", r.firstFailure)
	}
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, ms})
	fmt.Fprintf(w, "%s\n", line)
}
