// Package motion implements MotionGrabber and video motion search (§4.3):
// cameras encode per-coarse-cell motion as 32-bit words; the grabber
// fetches them like event logs and stores them keyed by (camera, ts);
// Dashboard searches backwards in time for motion within a rectangle of
// the frame and draws heatmaps of motion over time.
package motion

import (
	"fmt"

	"littletable/internal/clock"
	"littletable/internal/core"
	"littletable/internal/devicesim"
	"littletable/internal/ltval"
	"littletable/internal/schema"
)

// Schema returns the motion table's schema: keyed on the camera's
// identifier and time, with the event id, encoded bit vector, and duration
// as the value (§4.3).
func Schema() *schema.Schema {
	return schema.MustNew([]schema.Column{
		{Name: "camera", Type: ltval.Int64},
		{Name: "ts", Type: ltval.Timestamp},
		{Name: "event_id", Type: ltval.Int64},
		{Name: "word", Type: ltval.Int64}, // EncodeMotionWord value
		{Name: "duration_ms", Type: ltval.Int32},
	}, []string{"camera", "ts"})
}

// Row builds one motion row.
func Row(camera int64, ev devicesim.MotionEvent) schema.Row {
	return schema.Row{
		ltval.NewInt64(camera),
		ltval.NewTimestamp(ev.Ts),
		ltval.NewInt64(ev.ID),
		ltval.NewInt64(int64(ev.Word)),
		ltval.NewInt32(ev.DurationMs),
	}
}

// Grabber is the MotionGrabber daemon state.
type Grabber struct {
	tab   *core.Table
	fleet *devicesim.Fleet
	clk   clock.Clock

	cache map[int64]int64 // camera id → latest fetched motion id

	RowsInserted int64
}

// New returns a grabber over the given motion table.
func New(tab *core.Table, fleet *devicesim.Fleet, clk clock.Clock) *Grabber {
	return &Grabber{tab: tab, fleet: fleet, clk: clk, cache: make(map[int64]int64)}
}

// Poll fetches new motion events from every reachable camera.
func (g *Grabber) Poll() error {
	now := g.clk.Now()
	for _, dev := range g.fleet.Devices() {
		if dev.Kind != "camera" {
			continue
		}
		dev.Advance(now)
		afterID := g.cache[dev.ID]
		evs, ok := dev.FetchMotionAfter(afterID, 0)
		if !ok || len(evs) == 0 {
			continue
		}
		batch := make([]schema.Row, 0, len(evs))
		for _, ev := range evs {
			batch = append(batch, Row(dev.ID, ev))
			if ev.ID > afterID {
				afterID = ev.ID
			}
		}
		if err := g.tab.Insert(batch); err != nil {
			return fmt.Errorf("motion: insert: %w", err)
		}
		g.RowsInserted += int64(len(batch))
		g.cache[dev.ID] = afterID
	}
	return nil
}

// Match is one motion event matching a search.
type Match struct {
	Ts         int64
	DurationMs int32
	Word       uint32
}

// SearchRect searches backwards in time for motion within the pixel
// rectangle [x0,x1)×[y0,y1) of a camera's frame between minTs and maxTs,
// returning up to limit matches, newest first (§4.3: "select any
// rectangular area of interest ... and search backwards in time for motion
// events within that area"). With LittleTable returning ~500k rows/second,
// a week of one camera's video (~51k rows) scans in ~100 ms.
func SearchRect(tab *core.Table, camera int64, x0, y0, x1, y1 int, minTs, maxTs int64, limit int) ([]Match, error) {
	cells := devicesim.CellsForRect(x0, y0, x1, y1)
	if len(cells) == 0 {
		return nil, nil
	}
	q := core.NewQuery()
	q.Lower = []ltval.Value{ltval.NewInt64(camera)}
	q.Upper = q.Lower
	q.MinTs, q.MaxTs = minTs, maxTs
	q.Descending = true
	it, err := tab.Query(q)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	var out []Match
	for it.Next() {
		row := it.Row()
		word := uint32(row[3].Int)
		if !devicesim.MotionMatchesRect(word, cells) {
			continue
		}
		out = append(out, Match{Ts: row[1].Int, DurationMs: int32(row[4].Int), Word: word})
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out, it.Err()
}

// Heatmap accumulates per-coarse-cell motion durations over a time window,
// the data behind Dashboard's "heatmaps of motion over time" (§4.3).
// Result indexed [row][col] in milliseconds.
func Heatmap(tab *core.Table, camera int64, minTs, maxTs int64) ([devicesim.CoarseRows][devicesim.CoarseCols]int64, error) {
	var hm [devicesim.CoarseRows][devicesim.CoarseCols]int64
	q := core.NewQuery()
	q.Lower = []ltval.Value{ltval.NewInt64(camera)}
	q.Upper = q.Lower
	q.MinTs, q.MaxTs = minTs, maxTs
	it, err := tab.Query(q)
	if err != nil {
		return hm, err
	}
	defer it.Close()
	for it.Next() {
		row := it.Row()
		r, c, _ := devicesim.DecodeMotionWord(uint32(row[3].Int))
		if r < devicesim.CoarseRows && c < devicesim.CoarseCols {
			hm[r][c] += int64(int32(row[4].Int))
		}
	}
	return hm, it.Err()
}
