package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
	"time"

	"littletable/internal/schema"
	"littletable/internal/vfs"
)

// A run whose middle third lands in a 1.4× slow phase must calibrate to
// the work it actually did.
func TestDriftCorrection(t *testing.T) {
	const n, work = 1000, 10e6 // epochs, ns of work per epoch at nominal speed
	speed := func(i int) float64 {
		if i >= 300 && i < 600 {
			return 1.4
		}
		return 1
	}
	ph := &phase{}
	for i := 0; i <= n; i++ {
		ph.kernelNs = append(ph.kernelNs, refNominalNs*speed(i))
	}
	for i := 0; i < n; i++ {
		ph.epochNs = append(ph.epochNs, work*speed(i))
	}
	ph.drift = driftFactors(ph.kernelNs)
	if raw, want := ph.rawSeconds(), n*work/1e9; raw < 1.1*want {
		t.Fatalf("synthetic slow phase is not visible in the raw total: %.3fs vs %.3fs", raw, want)
	}
	if got, want := ph.calSeconds(), n*work/1e9; math.Abs(got-want) > 0.02*want {
		t.Errorf("calibrated total %.4fs, want %.4fs ±2%%", got, want)
	}
	// Deep inside a phase the factor is exact; the window is clipped, not
	// shifted, at both ends of the run.
	for _, c := range []struct {
		epoch int
		want  float64
	}{{0, 1}, {150, 1}, {450, 1.4}, {n - 1, 1}} {
		if got := ph.drift[c.epoch]; math.Abs(got-c.want) > 1e-9 {
			t.Errorf("drift[%d] = %v, want %v", c.epoch, got, c.want)
		}
	}
	ramp := []float64{1, 2, 3, 4}
	if got, want := driftFactors(ramp), []float64{2.5 / refNominalNs, 2.5 / refNominalNs, 2.5 / refNominalNs}; len(got) != 3 || got[0] != want[0] || got[2] != want[2] {
		t.Errorf("short series: drift %v, want the mean of all samples for every epoch", got)
	}
}

// The kernel must do its fixed work and leave no growing structure behind.
func TestRefKernel(t *testing.T) {
	if d := refKernel(); d <= 0 {
		t.Fatalf("kernel took %v", d)
	}
	for _, n := range refRing {
		if n == nil {
			t.Fatal("ring slot left empty")
		}
		if n.next != nil && n.next.next != nil {
			t.Fatal("kernel retains a chain longer than two nodes")
		}
	}
}

func TestPercentileAndSampleCounts(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 … 1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {1, 1}} {
		if got := percentile(append([]float64(nil), xs...), c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 || median(nil) != 0 {
		t.Error("empty input must give 0")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] and
	// statistics.quantiles(range(1, 7), n=4) == [1.75, 3.5, 5.25].
	if q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1…10 = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6}); q1 != 1.75 || q3 != 5.25 {
		t.Errorf("quartiles of 1…6 = %v, %v, want 1.75, 5.25", q1, q3)
	}

	ph := &phase{epochNs: []float64{0}, drift: []float64{1, 2}}
	ph.record("insert", 10, 4*time.Millisecond, 0)
	ph.record("tick", 0, time.Millisecond, 0)
	ph.note("core.insert", 10, time.Millisecond)
	ph.epochNs = append(ph.epochNs, 0)
	ph.record("query", 5, 6*time.Millisecond, 2*time.Millisecond)
	if got := len(ph.pick("")); got != 2 {
		t.Errorf("%d client-op samples, want 2 (tick and replay excluded)", got)
	}
	if got := ph.calMs("query"); len(got) != 1 || got[0] != 3 {
		t.Errorf("calibrated query latency %v, want [3] (6 ms ÷ drift 2)", got)
	}
	if got := ph.calFirstMs("query"); got[0] != 1 {
		t.Errorf("calibrated first-row latency %v, want 1", got[0])
	}
	if got, want := ph.epochNs[0], 5e6; got != want {
		t.Errorf("epoch 0 charged %v ns, want %v (the replay note is not measured work)", got, want)
	}
	if got, want := ph.calSeconds(), (5e6/1+6e6/2)/1e9; math.Abs(got-want) > 1e-12 {
		t.Errorf("calSeconds = %v, want %v", got, want)
	}
}

// bruteScan is the trivially correct model expectScan must agree with.
func bruteScan(g generator, sc *schema.Schema, s scanSpec) (int64, uint64) {
	var rows []schema.Row
	for i := int64(0); i < s.n; i++ {
		c := g.at(s.table, i)
		d := c.net*devicesPerNetwork + c.dev
		if d < s.d0 || d > s.d1 || c.ts < s.minTs || c.ts > s.maxTs {
			continue
		}
		row := make(schema.Row, 6)
		c.fill(row)
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if s.desc {
			return sc.CompareKeys(rows[i], rows[j]) > 0
		}
		return sc.CompareKeys(rows[i], rows[j]) < 0
	})
	if s.limit > 0 && int64(len(rows)) > s.limit {
		rows = rows[:s.limit]
	}
	var sum uint64
	for _, r := range rows {
		sum = foldSum(sum, hashRow(r))
	}
	return int64(len(rows)), sum
}

func TestGeneratorDeterminismAndOracle(t *testing.T) {
	sc := benchSchema()
	g1, g1b, g2 := newGenerator(7, 20_000), newGenerator(7, 20_000), newGenerator(8, 20_000)
	a, ua := g1.batch(0, 1000, 512)
	b, ub := g1b.batch(0, 1000, 512)
	c, uc := g2.batch(0, 1000, 512)
	if ua != ub || ua != uc {
		t.Errorf("user bytes differ: %d %d %d (structure must not depend on the seed)", ua, ub, uc)
	}
	same, differ := true, false
	for i := range a {
		if err := sc.Validate(a[i]); err != nil {
			t.Fatal(err)
		}
		same = same && hashRow(a[i]) == hashRow(b[i])
		differ = differ || hashRow(a[i]) != hashRow(c[i])
		if a[i][3].Float != c[i][3].Float || a[i][2].Int == c[i][2].Int {
			t.Fatalf("row %d: seeds must differ in timestamps only", i)
		}
	}
	if !same {
		t.Error("same seed produced different batches")
	}
	if !differ {
		t.Error("different seeds produced identical rows")
	}
	if d := (g2.base - g1.base) % (7 * 24 * 3600 * 1e6); d != 0 {
		t.Errorf("seed shift is not whole weeks (remainder %d µs)", d)
	}

	const n = 7 * numDevices // 7 rows per device
	lo, hi := g1.ts(2*numDevices), g1.ts(5*numDevices)
	for _, s := range []scanSpec{
		{n: n, d0: 0, d1: 4, minTs: math.MinInt64, maxTs: math.MaxInt64},
		{n: n - 3, d0: 495, d1: 499, minTs: math.MinInt64, maxTs: math.MaxInt64},
		{n: n, d0: 120, d1: 120, minTs: lo, maxTs: hi},
		{n: n, d0: 120, d1: 124, minTs: lo + 1, maxTs: hi - 1, desc: true},
		{n: n, d0: 50, d1: 99, minTs: lo, maxTs: hi, desc: true, limit: 17},
		{n: n, d0: 7, d1: 7, minTs: hi, maxTs: lo}, // empty window
		{n: 3, d0: 10, d1: 14, minTs: math.MinInt64, maxTs: math.MaxInt64},
	} {
		gotN, gotSum := g1.expectScan(s)
		wantN, wantSum := bruteScan(g1, sc, s)
		if gotN != wantN || gotSum != wantSum {
			t.Errorf("expectScan(%+v) = %d rows %x, brute force %d rows %x", s, gotN, gotSum, wantN, wantSum)
		}
	}
	if iLo, iHi := g1.windowRows(n, lo, hi); iLo != 2*numDevices || iHi != 5*numDevices {
		t.Errorf("windowRows = [%d,%d], want [%d,%d]", iLo, iHi, 2*numDevices, 5*numDevices)
	}
}

func TestMeterFS(t *testing.T) {
	tr := newTracer()
	m := newMeterFS(vfs.NewMem(), tr)
	if err := m.MkdirAll("d"); err != nil {
		t.Fatal(err)
	}
	f, err := m.Create("d/x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 24)); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.SyncDir("d"); err != nil {
		t.Fatal(err)
	}
	if got := len(tr.spans); got != 0 || m.busyNs.Load() != 0 {
		t.Errorf("untimed calls recorded %d spans, %d busy ns", got, m.busyNs.Load())
	}

	// Timed: reads are counted, timed and attributed to the op in flight.
	m.timed.Store(true)
	tr.on.Store(true)
	op := tr.beginOp()
	start := time.Now()
	r, err := m.Open("d/x")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 100)
	for off := int64(0); off < 300; off += 100 {
		if _, err := r.ReadAt(buf, off); err != nil {
			t.Fatal(err)
		}
	}
	r.Close()
	tr.endOp(op, "client.query", start, time.Now())

	for name, got := range map[string]int64{
		"write bytes": m.writeBytes.Load(), "write calls": m.writeCalls.Load(),
		"read bytes": m.readBytes.Load(), "read calls": m.readCalls.Load(), "syncs": m.syncCall.Load(),
	} {
		want := map[string]int64{"write bytes": 1024, "write calls": 2, "read bytes": 300, "read calls": 3, "syncs": 2}[name]
		if got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if m.busyNs.Load() <= 0 {
		t.Error("timed reads accumulated no busy time")
	}
	var reads, roots int
	for _, s := range tr.spans {
		switch {
		case s.Name == "vfs.read" && s.Parent == op && s.Op == op && s.End >= s.Start:
			reads++
		case s.Name == "client.query" && s.ID == op && s.Parent == 0:
			roots++
		}
	}
	if reads != 3 || roots != 1 {
		t.Errorf("%d vfs.read spans under the op and %d root spans, want 3 and 1", reads, roots)
	}

	if err := tr.write(m, "d/trace.json"); err != nil {
		t.Fatal(err)
	}
	data, err := vfs.ReadFile(m, "d/trace.json")
	if err != nil {
		t.Fatal(err)
	}
	var spans []map[string]interface{}
	if err := json.Unmarshal(data, &spans); err != nil || len(spans) != 4 {
		t.Errorf("span file: %d spans, err %v; want 4 valid JSON objects", len(spans), err)
	}
}

// smokeConfig runs a workload at 1/100 size.
func smokeConfig(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 3, seconds: 10, trace: trace, scale: 100, workDir: t.TempDir(), setups: 1}
}

// Every workload, at 1/100 size with the oracle on, end to end and traced.
func TestWorkloadsSmoke(t *testing.T) {
	var contract struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &contract); err != nil {
		t.Fatal(err)
	}
	if len(contract.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program has %d", len(contract.Workloads), len(workloads))
	}
	if len(contract.EndToEnd) != len(endToEndDefs) {
		t.Errorf("BENCHMARK.json names %d end-to-end metrics, the program has %d", len(contract.EndToEnd), len(endToEndDefs))
	}
	for i, d := range endToEndDefs {
		if i >= len(contract.EndToEnd) {
			break
		}
		c := contract.EndToEnd[i]
		if c.Name != d.name || c.Unit != d.unit || c.Bound != d.bound || (c.Better == "higher") != d.higher {
			t.Errorf("BENCHMARK.json end_to_end[%d] = %+v, the program says %+v", i, c, d)
		}
	}

	for i, w := range workloads {
		if i < len(contract.Workloads) && contract.Workloads[i].Name != w.name {
			t.Errorf("BENCHMARK.json workload %d is %q, the program's is %q", i, contract.Workloads[i].Name, w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(context.Background(), smokeConfig(t, w.name, false))
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Fatalf("%d of %d ops failed: %s", res.failed, res.attempted, res.firstFailure)
			}
			for _, d := range endToEndDefs {
				m, ok := res.endToEnd[d.name]
				if !ok || m.Unit != d.unit || !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("end-to-end metric %s = %+v (present %v), want a positive finite %s", d.name, m, ok, d.unit)
				}
			}
		})
		t.Run(w.name+"/traced", func(t *testing.T) {
			cfg := smokeConfig(t, w.name, true)
			cfg.workDir += "/run" // the span file lands beside the run directory
			res, err := runWorkload(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 {
				t.Fatalf("%d of %d ops failed: %s", res.failed, res.attempted, res.firstFailure)
			}
			if st, err := os.Stat(res.traceFile); err != nil || st.Size() == 0 {
				t.Errorf("span file %q: %v", res.traceFile, err)
			}
			if len(res.perLayer) != len(contract.PerLayer) {
				t.Errorf("traced run reports %d layer metrics, BENCHMARK.json names %d", len(res.perLayer), len(contract.PerLayer))
			}
			for _, c := range contract.PerLayer {
				m, ok := res.perLayer[c.Name]
				if !ok || m.Unit != c.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("layer metric %s = %+v (present %v), want a finite %s", c.Name, m, ok, c.Unit)
				}
			}
			if r := res.perLayer["harness.trace_self_sum_ratio"].Value; r < 1 {
				t.Errorf("self times sum to %.3f of the root spans; clamped self times cannot sum below 1", r)
			}
		})
	}
}

// The same seed must repeat every count exactly; another seed must keep
// the structure (so count metrics stay comparable across seeds).
func TestSeedStability(t *testing.T) {
	run := func(seed uint64) *result {
		cfg := smokeConfig(t, "ingest", false)
		cfg.seed = seed
		res, err := runWorkload(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b, c := run(5), run(5), run(6)
	for _, name := range []string{"write_bytes_per_user_byte", "disk_bytes_per_user_byte"} {
		if a.endToEnd[name] != b.endToEnd[name] {
			t.Errorf("%s: %v then %v at the same seed", name, a.endToEnd[name].Value, b.endToEnd[name].Value)
		}
		if x, y := a.endToEnd[name].Value, c.endToEnd[name].Value; math.Abs(x-y) > 0.001*x {
			t.Errorf("%s: %v at seed 5, %v at seed 6; seeds must not move count metrics", name, x, y)
		}
	}
	if a.attempted != b.attempted || a.attempted != c.attempted {
		t.Errorf("attempted ops %d, %d, %d", a.attempted, b.attempted, c.attempted)
	}
}
