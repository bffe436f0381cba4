// Video motion search: the paper's third application (§4.3) end to end.
//
// A simulated security camera encodes motion as 32-bit words — a nibble
// each for the coarse cell's row and column plus one bit per macroblock —
// and coalesces successive frames. MotionGrabber stores the events keyed
// by (camera, ts); the program then searches a rectangle of the frame
// backwards in time for motion, and renders the heatmap Dashboard draws.
//
//	go run ./examples/motionsearch
package main

import (
	"fmt"
	"log"
	"os"

	"littletable"
	"littletable/internal/apps/motion"
	"littletable/internal/clock"
	"littletable/internal/devicesim"
)

func main() {
	//ltlint:ignore vfsonly example provisions its demo directory on the real filesystem
	dir, err := os.MkdirTemp("", "littletable-motion")
	if err != nil {
		log.Fatal(err)
	}
	//ltlint:ignore vfsonly demo directory cleanup
	defer os.RemoveAll(dir)

	start := littletable.Now()
	clk := clock.NewFake(start)
	fleet := devicesim.NewFleet(clk, 11)
	const cameraID = 1
	fleet.AddDevice(cameraID, 300, "camera")

	tab, err := littletable.CreateTable(dir, "motion", motion.Schema(), 0,
		littletable.Options{Clock: clk})
	if err != nil {
		log.Fatal(err)
	}
	defer tab.Close()
	grabber := motion.New(tab, fleet, clk)

	// A simulated day of footage, polled every ten minutes.
	for p := 0; p < 24*6; p++ {
		clk.Advance(10 * clock.Minute)
		fleet.AdvanceAll()
		if err := grabber.Poll(); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("camera %d: %d coalesced motion events over a simulated day\n",
		cameraID, grabber.RowsInserted)
	fmt.Printf("(production cameras average ~51,000 rows/week, §4.3)\n")

	// A security incident: search the doorway — a rectangle in the frame —
	// backwards over the last 6 hours.
	x0, y0, x1, y1 := 384, 192, 576, 432
	matches, err := motion.SearchRect(tab, cameraID, x0, y0, x1, y1,
		clk.Now()-6*clock.Hour, clk.Now(), 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmotion in rectangle (%d,%d)-(%d,%d), last 6 h, newest first:\n", x0, y0, x1, y1)
	for _, m := range matches {
		row, col, blocks := devicesim.DecodeMotionWord(m.Word)
		fmt.Printf("  -%3dm  cell (%d,%d)  %2d blocks  %4.1fs\n",
			(clk.Now()-m.Ts)/clock.Minute, row, col, popcount(blocks), float64(m.DurationMs)/1000)
	}

	// The heatmap view: total motion per coarse cell over the whole day.
	hm, err := motion.Heatmap(tab, cameraID, start, clk.Now())
	if err != nil {
		log.Fatal(err)
	}
	var max int64
	for _, r := range hm {
		for _, v := range r {
			if v > max {
				max = v
			}
		}
	}
	fmt.Printf("\nmotion heatmap (%dx%d coarse cells, darker = more motion):\n",
		devicesim.CoarseCols, devicesim.CoarseRows)
	shades := []byte(" .:-=+*#%@")
	for _, r := range hm {
		line := make([]byte, len(r))
		for c, v := range r {
			idx := 0
			if max > 0 {
				idx = int(v * int64(len(shades)-1) / max)
			}
			line[c] = shades[idx]
		}
		fmt.Printf("  |%s|\n", line)
	}
}

func popcount(v uint32) int {
	n := 0
	for ; v != 0; v &= v - 1 {
		n++
	}
	return n
}
