// Event logs: the paper's second application (§4.2) end to end.
//
// Devices assign events unique ids from a monotonic counter; EventsGrabber
// tracks the most recent id per device, polls for anything newer, and
// stores events keyed by (network, device, ts). The example then runs the
// two recovery paths of §4.2: a restart with recent rows in the recovery
// window, and a device that was offline so long its last stored row is far
// beyond the window — resolved via the latest-row-for-prefix search of
// §3.4.5, backed by the engine's backward group walk and Bloom filters.
//
//	go run ./examples/eventlogs
package main

import (
	"fmt"
	"log"
	"os"

	"littletable"
	"littletable/internal/apps/events"
	"littletable/internal/clock"
	"littletable/internal/devicesim"
)

func main() {
	//ltlint:ignore vfsonly example provisions its demo directory on the real filesystem
	dir, err := os.MkdirTemp("", "littletable-events")
	if err != nil {
		log.Fatal(err)
	}
	//ltlint:ignore vfsonly demo directory cleanup
	defer os.RemoveAll(dir)

	start := littletable.Now()
	clk := clock.NewFake(start)
	fleet := devicesim.NewFleet(clk, 7)
	for dev := int64(1); dev <= 4; dev++ {
		fleet.AddDevice(dev, 200, "access_point")
	}

	tab, err := littletable.CreateTable(dir, "events", events.Schema(), 0,
		littletable.Options{Clock: clk})
	if err != nil {
		log.Fatal(err)
	}
	defer tab.Close()

	grabber := events.New(tab, fleet, clk)
	grabber.SentinelPeriod = events.DefaultSentinelPeriod

	// Six simulated hours of activity, polled every five minutes.
	for m := 0; m < 6*12; m++ {
		clk.Advance(5 * clock.Minute)
		fleet.AdvanceAll()
		if err := grabber.Poll(); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("stored %d event rows from %d devices over 6 simulated hours\n",
		grabber.RowsInserted, len(fleet.Devices()))

	// Dashboard's event browser: newest events for one device.
	q := littletable.NewQuery()
	q.Lower = []littletable.Value{littletable.NewInt64(200), littletable.NewInt64(2)}
	q.Upper = q.Lower
	q.Descending = true
	q.Limit = 5
	rows, err := tab.QueryAll(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nnewest events for device 2:")
	for _, r := range rows {
		typ := string(r[4].Bytes)
		if typ == events.SentinelType {
			typ = "(sentinel)"
		}
		fmt.Printf("  id=%-4d -%3dm  %-12s %s\n",
			r[3].Int, (clk.Now()-r[2].Int)/clock.Minute, typ, r[5].Bytes)
	}

	// Recovery path 1 (§4.2): restart with recent rows in the window.
	g2 := events.New(tab, fleet, clk)
	if err := g2.RebuildCache(); err != nil {
		log.Fatal(err)
	}
	id, _ := g2.CachedID(2)
	fmt.Printf("\nafter restart, recovered latest event id for device 2: %d\n", id)

	// Recovery path 2: device 3 goes dark for a month; its newest stored
	// row is far outside the recovery window, so the restarted grabber
	// falls back to the latest-row-for-prefix lookup.
	if err := tab.FlushAll(); err != nil {
		log.Fatal(err)
	}
	dark := fleet.Device(3)
	dark.SetOnline(false)
	clk.Advance(30 * clock.Day)
	dark.SetOnline(true)
	g3 := events.New(tab, fleet, clk)
	if err := g3.RebuildCache(); err != nil {
		log.Fatal(err)
	}
	deepID, _ := g3.CachedID(3)
	fmt.Printf("device 3 after a 30-day outage: deep recovery found event id %d via latest-row search\n", deepID)

	// Polling resumes; the device replays everything the grabber missed.
	fleet.AdvanceAll()
	before := g3.RowsInserted
	if err := g3.Poll(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("first poll after outage stored %d catch-up events, none duplicated\n",
		g3.RowsInserted-before)
}
