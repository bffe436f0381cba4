// Package usage implements UsageGrabber (§4.1.1): a daemon that
// periodically fetches lifetime byte counters from devices, converts them
// to average transfer rates, and stores them in a LittleTable table keyed
// by (network, device, ts) — the two-dimensionally clustered table behind
// Dashboard's per-network and per-device transfer graphs.
package usage

import (
	"fmt"

	"littletable/internal/clock"
	"littletable/internal/core"
	"littletable/internal/devicesim"
	"littletable/internal/ltval"
	"littletable/internal/schema"
)

// DefaultThreshold is T from §4.1.1: after unavailability longer than T,
// the grabber treats the next response like a first contact rather than
// claiming a steady rate over the whole gap. "Dashboard sets T to an
// hour."
const DefaultThreshold = clock.Hour

// Schema returns the usage table's schema: key (network, device, ts),
// value (prev_ts, counter, rate), exactly the key/value split of §4.1.1.
func Schema() *schema.Schema {
	return schema.MustNew([]schema.Column{
		{Name: "network", Type: ltval.Int64},
		{Name: "device", Type: ltval.Int64},
		{Name: "ts", Type: ltval.Timestamp},
		{Name: "prev_ts", Type: ltval.Timestamp},
		{Name: "counter", Type: ltval.Int64},
		{Name: "rate", Type: ltval.Double}, // bytes/second over [prev_ts, ts)
	}, []string{"network", "device", "ts"})
}

// Row builds one usage row.
func Row(network, device, ts, prevTs int64, counter uint64, rate float64) schema.Row {
	return schema.Row{
		ltval.NewInt64(network),
		ltval.NewInt64(device),
		ltval.NewTimestamp(ts),
		ltval.NewTimestamp(prevTs),
		ltval.NewInt64(int64(counter)),
		ltval.NewDouble(rate),
	}
}

// sample is the in-memory cache entry per device: the previous fetch time
// and counter (t1, c1).
type sample struct {
	t1 int64
	c1 uint64
}

// Grabber is the UsageGrabber daemon state.
type Grabber struct {
	tab   *core.Table
	fleet *devicesim.Fleet
	clk   clock.Clock

	// Threshold is T; gaps longer than T render as gaps in Dashboard.
	Threshold int64

	cache map[int64]sample // device id → (t1, c1)

	// Stats.
	RowsInserted int64
	GapsSkipped  int64
}

// New returns a grabber over the given usage table.
func New(tab *core.Table, fleet *devicesim.Fleet, clk clock.Clock) *Grabber {
	return &Grabber{
		tab:       tab,
		fleet:     fleet,
		clk:       clk,
		Threshold: DefaultThreshold,
		cache:     make(map[int64]sample),
	}
}

// Poll fetches every reachable device's counter once and inserts rate rows
// ("Every minute UsageGrabber fetches from each device D in network N a
// 64-bit count of the number of bytes the device has transferred").
func (g *Grabber) Poll() error {
	now := g.clk.Now()
	var batch []schema.Row
	for _, dev := range g.fleet.Devices() {
		dev.Advance(now)
		c2, ok := dev.FetchCounter()
		if !ok {
			continue // unreachable: no row, Dashboard shows a gap
		}
		prev, seen := g.cache[dev.ID]
		g.cache[dev.ID] = sample{t1: now, c1: c2}
		if !seen {
			// Very first response: cache only (§4.1.1).
			continue
		}
		if now-prev.t1 > g.Threshold {
			// Long unavailability: "it feels disingenuous to show that the
			// device maintained a steady rate of transfer over the entire
			// period". Cache but insert nothing.
			g.GapsSkipped++
			continue
		}
		if now == prev.t1 {
			continue
		}
		secs := float64(now-prev.t1) / float64(clock.Second)
		rate := float64(c2-prev.c1) / secs
		batch = append(batch, Row(dev.NetworkID, dev.ID, now, prev.t1, c2, rate))
	}
	if len(batch) == 0 {
		return nil
	}
	if err := g.tab.Insert(batch); err != nil {
		return fmt.Errorf("usage: insert: %w", err)
	}
	g.RowsInserted += int64(len(batch))
	return nil
}

// ExpireCache drops entries older than T: the grabber's next contact with
// those devices behaves like a first contact, so the cache stays bounded
// (§4.1.1).
func (g *Grabber) ExpireCache() {
	now := g.clk.Now()
	for id, s := range g.cache {
		if now-s.t1 > g.Threshold {
			delete(g.cache, id)
		}
	}
}

// RebuildCache reconstructs the in-memory cache after a LittleTable crash
// by querying the maximum timestamp and counter per device from now-T
// forward (§4.1.1: with 30,000 devices this takes under four seconds).
func (g *Grabber) RebuildCache() error {
	now := g.clk.Now()
	q := core.NewQuery()
	q.MinTs = now - g.Threshold
	q.MaxTs = now
	it, err := g.tab.Query(q)
	if err != nil {
		return err
	}
	defer it.Close()
	g.cache = make(map[int64]sample)
	for it.Next() {
		row := it.Row()
		dev := row[1].Int
		ts := row[2].Int
		if cur, ok := g.cache[dev]; !ok || ts > cur.t1 {
			g.cache[dev] = sample{t1: ts, c1: uint64(row[4].Int)}
		}
	}
	return it.Err()
}

// CacheLen exposes the cache size for tests and monitoring.
func (g *Grabber) CacheLen() int { return len(g.cache) }

// CachedSample returns a device's cache entry, for tests.
func (g *Grabber) CachedSample(device int64) (ts int64, counter uint64, ok bool) {
	s, ok := g.cache[device]
	return s.t1, s.c1, ok
}
