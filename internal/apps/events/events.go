// Package events implements EventsGrabber (§4.2): a daemon that tracks
// device event logs — DHCP leases, wireless (dis)associations, 802.1X
// authentications — by keeping the most recent event id fetched from each
// device, supplying it on each poll, and storing the newer events the
// device returns. Event rows are keyed by (network, device, ts) with the
// event id and contents as the value.
package events

import (
	"fmt"

	"littletable/internal/clock"
	"littletable/internal/core"
	"littletable/internal/devicesim"
	"littletable/internal/ltval"
	"littletable/internal/schema"
)

// DefaultRecoveryWindow is the fixed duration of recent rows scanned when
// rebuilding the id cache after a restart (§4.2).
const DefaultRecoveryWindow = 6 * clock.Hour

// DefaultSentinelPeriod spaces the optional sentinel rows (§4.2's
// suggested optimization); zero disables them.
const DefaultSentinelPeriod = clock.Hour

// SentinelType marks sentinel rows so queries can filter them.
const SentinelType = "__sentinel"

// Schema returns the events table's schema.
func Schema() *schema.Schema {
	return schema.MustNew([]schema.Column{
		{Name: "network", Type: ltval.Int64},
		{Name: "device", Type: ltval.Int64},
		{Name: "ts", Type: ltval.Timestamp},
		{Name: "event_id", Type: ltval.Int64},
		{Name: "type", Type: ltval.String},
		{Name: "info", Type: ltval.String},
	}, []string{"network", "device", "ts"})
}

// Row builds one event row.
func Row(network, device, ts, id int64, typ, info string) schema.Row {
	return schema.Row{
		ltval.NewInt64(network),
		ltval.NewInt64(device),
		ltval.NewTimestamp(ts),
		ltval.NewInt64(id),
		ltval.NewString(typ),
		ltval.NewString(info),
	}
}

// Grabber is the EventsGrabber daemon state.
type Grabber struct {
	tab   *core.Table
	fleet *devicesim.Fleet
	clk   clock.Clock

	// RecoveryWindow bounds the restart scan.
	RecoveryWindow int64
	// SentinelPeriod spaces sentinel rows; 0 disables.
	SentinelPeriod int64

	cache        map[int64]int64 // device id → latest fetched event id
	lastSentinel map[int64]int64 // device id → ts of last sentinel row

	RowsInserted int64
}

// New returns a grabber over the given events table.
func New(tab *core.Table, fleet *devicesim.Fleet, clk clock.Clock) *Grabber {
	return &Grabber{
		tab:            tab,
		fleet:          fleet,
		clk:            clk,
		RecoveryWindow: DefaultRecoveryWindow,
		cache:          make(map[int64]int64),
		lastSentinel:   make(map[int64]int64),
	}
}

// Poll fetches new events from every reachable device and stores them.
func (g *Grabber) Poll() error {
	now := g.clk.Now()
	for _, dev := range g.fleet.Devices() {
		dev.Advance(now)
		afterID, known := g.cache[dev.ID]
		if !known {
			// A device we have no state for: recover its position first.
			if err := g.recoverDevice(dev); err != nil {
				return err
			}
			afterID = g.cache[dev.ID]
		}
		evs, ok := dev.FetchEventsAfter(afterID, 0)
		if !ok {
			continue
		}
		var batch []schema.Row
		for _, ev := range evs {
			batch = append(batch, Row(dev.NetworkID, dev.ID, ev.Ts, ev.ID, ev.Type, ev.Info))
			if ev.ID > afterID {
				afterID = ev.ID
			}
		}
		if len(batch) > 0 {
			if err := g.tab.Insert(batch); err != nil {
				return fmt.Errorf("events: insert: %w", err)
			}
			g.RowsInserted += int64(len(batch))
			g.cache[dev.ID] = afterID
		}
		if g.SentinelPeriod > 0 && now-g.lastSentinel[dev.ID] >= g.SentinelPeriod {
			// Sentinel row: records the latest event id so a restarted
			// grabber never searches further back than one sentinel period
			// (§4.2's improvement).
			sent := Row(dev.NetworkID, dev.ID, now, afterID, SentinelType, "")
			if err := g.tab.Insert([]schema.Row{sent}); err == nil {
				g.lastSentinel[dev.ID] = now
			}
		}
	}
	return nil
}

// recoverDevice re-establishes the latest event id for one device after a
// restart or first contact, per §4.2: first check recent rows; if none,
// ask the device for its oldest event and use its timestamp to bound a
// latest-row search.
func (g *Grabber) recoverDevice(dev *devicesim.Device) error {
	now := g.clk.Now()
	// Recent-window scan for this device.
	q := core.NewQuery()
	q.Lower = []ltval.Value{ltval.NewInt64(dev.NetworkID), ltval.NewInt64(dev.ID)}
	q.Upper = q.Lower
	q.MinTs = now - g.RecoveryWindow
	q.MaxTs = now
	it, err := g.tab.Query(q)
	if err != nil {
		return err
	}
	best := int64(0)
	for it.Next() {
		if id := it.Row()[3].Int; id > best {
			best = id
		}
	}
	errScan := it.Err()
	it.Close()
	if errScan != nil {
		return errScan
	}
	if best > 0 {
		g.cache[dev.ID] = best
		return nil
	}
	// Nothing recent. The device's oldest retained event bounds how far
	// back a useful row could be; find the latest stored row for this
	// (network, device) via the latest-row-for-prefix path (§3.4.5).
	row, found, err := g.tab.LatestRow([]ltval.Value{
		ltval.NewInt64(dev.NetworkID), ltval.NewInt64(dev.ID),
	})
	if err != nil {
		return err
	}
	if found {
		g.cache[dev.ID] = row[3].Int
		return nil
	}
	// Never seen this device: start from nothing; the device will replay
	// from its oldest retained event.
	g.cache[dev.ID] = 0
	return nil
}

// RebuildCache drops all state and re-recovers every device, as after an
// EventsGrabber restart.
func (g *Grabber) RebuildCache() error {
	g.cache = make(map[int64]int64)
	for _, dev := range g.fleet.Devices() {
		if err := g.recoverDevice(dev); err != nil {
			return err
		}
	}
	return nil
}

// CachedID exposes a device's cached event id for tests.
func (g *Grabber) CachedID(device int64) (int64, bool) {
	id, ok := g.cache[device]
	return id, ok
}
