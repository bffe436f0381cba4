// Network usage: the paper's first application (§4.1) end to end.
//
// A simulated device fleet produces byte counters; UsageGrabber polls them
// every minute and stores transfer rates keyed by (network, device, ts);
// a rollup aggregator derives ten-minute per-network totals; and the
// program renders the per-network "graph" Dashboard would draw, first from
// the raw table and then from the rollup. It then crashes the grabber and
// shows the §4.1.1 recovery: the in-memory cache rebuilds from LittleTable
// and polling resumes without duplicate or missing rows.
//
//	go run ./examples/networkusage
package main

import (
	"fmt"
	"log"
	"os"
	"strings"

	"littletable"
	"littletable/internal/apps/agg"
	"littletable/internal/apps/usage"
	"littletable/internal/clock"
	"littletable/internal/devicesim"
)

func main() {
	//ltlint:ignore vfsonly example provisions its demo directory on the real filesystem
	dir, err := os.MkdirTemp("", "littletable-usage")
	if err != nil {
		log.Fatal(err)
	}
	//ltlint:ignore vfsonly demo directory cleanup
	defer os.RemoveAll(dir)

	// Simulated time makes the example deterministic and instant; swap in
	// clock.Real{} and a ticker for wall-clock operation.
	start := littletable.Now()
	clk := clock.NewFake(start)
	fleet := devicesim.NewFleet(clk, 2026)
	for dev := int64(1); dev <= 6; dev++ {
		network := int64(100 + dev%2) // two networks
		fleet.AddDevice(dev, network, "access_point")
	}

	opts := littletable.Options{Clock: clk}
	src, err := littletable.CreateTable(dir, "usage", usage.Schema(), 0, opts)
	if err != nil {
		log.Fatal(err)
	}
	defer src.Close()
	dst, err := littletable.CreateTable(dir, "usage_10m", agg.RollupSchema(), 0, opts)
	if err != nil {
		log.Fatal(err)
	}
	defer dst.Close()

	grabber := usage.New(src, fleet, clk)
	rollup := agg.NewRollup(src, dst, clk, start-clock.Hour)

	// One simulated hour of per-minute polls.
	poll := func(minutes int) {
		for i := 0; i < minutes; i++ {
			clk.Advance(clock.Minute)
			fleet.AdvanceAll()
			if err := grabber.Poll(); err != nil {
				log.Fatal(err)
			}
		}
	}
	poll(60)
	if err := rollup.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after 1 simulated hour: %d raw rows, %d rollup rows\n",
		src.RowEstimate(), dst.RowEstimate())

	// Dashboard view 1: one device's last 10 minutes from the raw table.
	q := littletable.NewQuery()
	q.Lower = []littletable.Value{littletable.NewInt64(101), littletable.NewInt64(1)}
	q.Upper = q.Lower
	q.MinTs = clk.Now() - 10*clock.Minute
	q.MaxTs = clk.Now()
	rows, err := src.QueryAll(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ndevice 1 (network 101), last 10 minutes, bytes/second:")
	for _, r := range rows {
		bar := int(r[5].Float / 20000)
		if bar > 60 {
			bar = 60
		}
		fmt.Printf("  -%2dm %8.0f %s\n", (clk.Now()-r[2].Int)/clock.Minute, r[5].Float, strings.Repeat("#", bar))
	}

	// Dashboard view 2: per-network ten-minute totals from the rollup.
	fmt.Println("\nper-network 10-minute rollups (bytes):")
	rrows, err := dst.QueryAll(littletable.NewQuery())
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range rrows {
		fmt.Printf("  network %d @%-3dm  %12d bytes over %d samples\n",
			r[0].Int, (clk.Now()-r[1].Int)/clock.Minute, r[2].Int, r[3].Int)
	}

	// Crash the grabber (§4.1.1): a fresh instance rebuilds its (t1, c1)
	// cache from LittleTable in one range query and resumes cleanly.
	fmt.Println("\nsimulating grabber crash + recovery...")
	grabber2 := usage.New(src, fleet, clk)
	if err := grabber2.RebuildCache(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rebuilt cache for %d devices\n", grabber2.CacheLen())
	before := src.RowEstimate()
	clk.Advance(clock.Minute)
	fleet.AdvanceAll()
	if err := grabber2.Poll(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("first post-recovery poll inserted %d rows (one per device, no gaps, no duplicates)\n",
		src.RowEstimate()-before)
}
