package ltbench

import (
	"fmt"
	"math/rand"

	"littletable/internal/apps/agg"
	"littletable/internal/apps/events"
	"littletable/internal/apps/usage"
	"littletable/internal/clock"
	"littletable/internal/configdb"
	"littletable/internal/core"
	"littletable/internal/devicesim"
	"littletable/internal/ltval"
	"littletable/internal/prodsim"
)

// RatesConfig scales the production-rates simulation (§5.2.3): a shard's
// grabbers poll a device fleet, aggregators roll the data up, and a
// Dashboard-like query load reads it back, all against simulated time.
type RatesConfig struct {
	Networks       int64
	DevicesPerNet  int64
	SimulatedHours int
	QueriesPerMin  int
	Seed           int64
	Dir            string
}

func (c *RatesConfig) defaults() {
	if c.Networks == 0 {
		c.Networks = 4
	}
	if c.DevicesPerNet == 0 {
		c.DevicesPerNet = 10
	}
	if c.SimulatedHours == 0 {
		c.SimulatedHours = 3
	}
	if c.QueriesPerMin == 0 {
		// Dashboard-scale read load relative to this fleet's size: the
		// paper's ~10:1 read:write row ratio is the shape target.
		c.QueriesPerMin = 1
	}
	if c.Seed == 0 {
		c.Seed = 5
	}
}

// RunRates regenerates §5.2.3's long-term rates: rows/second inserted and
// returned per shard, normalized to simulated time. The paper reports
// 14,000 inserted and 143,000 returned — read-heavy by ~10x, "in part due
// to aggregation: multiple aggregators read each source table and write
// substantially smaller destination tables."
func RunRates(cfg RatesConfig) (*Result, error) {
	cfg.defaults()
	dir, err := scratchDir(cfg.Dir, "rates")
	if err != nil {
		return nil, err
	}
	defer scratchRemove(dir)

	startTs := int64(1_782_018_420) * clock.Second
	clk := clock.NewFake(startTs)
	fleet := devicesim.NewFleet(clk, uint64(cfg.Seed))
	cfgdb := configdb.New()
	cust := cfgdb.AddCustomer("bench")
	deviceID := int64(1)
	for n := int64(0); n < cfg.Networks; n++ {
		net, err := cfgdb.AddNetwork(cust.ID, fmt.Sprintf("net%d", n))
		if err != nil {
			return nil, err
		}
		for d := int64(0); d < cfg.DevicesPerNet; d++ {
			fleet.AddDevice(deviceID, net.ID, "access_point")
			deviceID++
		}
	}

	opts := core.Options{Clock: clk}
	usageTab, err := core.CreateTable(dir, "usage", usage.Schema(), 0, opts)
	if err != nil {
		return nil, err
	}
	defer usageTab.Close()
	eventsTab, err := core.CreateTable(dir, "events", events.Schema(), 0, opts)
	if err != nil {
		return nil, err
	}
	defer eventsTab.Close()
	rollupTab, err := core.CreateTable(dir, "usage_10m", agg.RollupSchema(), 0, opts)
	if err != nil {
		return nil, err
	}
	defer rollupTab.Close()

	ug := usage.New(usageTab, fleet, clk)
	eg := events.New(eventsTab, fleet, clk)
	rollup := agg.NewRollup(usageTab, rollupTab, clk, startTs-clock.Hour)

	rng := rand.New(rand.NewSource(cfg.Seed))
	tabs := []*core.Table{usageTab, eventsTab, rollupTab}
	queryMix := func(now int64) error {
		for i := 0; i < cfg.QueriesPerMin; i++ {
			tab := tabs[rng.Intn(2)] // dashboards read source tables; rollups too
			if rng.Float64() < 0.3 {
				tab = rollupTab
			}
			q := core.NewQuery()
			lb := prodsim.LookbackSample(rng)
			q.MinTs, q.MaxTs = now-lb, now
			if rng.Float64() < 0.7 {
				net := 1 + rng.Int63n(cfg.Networks) // configdb network ids start at 2; close enough for load
				q.Lower = []ltval.Value{ltval.NewInt64(net)}
				q.Upper = q.Lower
			}
			it, err := tab.Query(q)
			if err != nil {
				return err
			}
			for it.Next() {
			}
			if err := it.Err(); err != nil {
				it.Close()
				return err
			}
			it.Close()
		}
		return nil
	}

	minutes := cfg.SimulatedHours * 60
	for m := 0; m < minutes; m++ {
		clk.Advance(clock.Minute)
		fleet.AdvanceAll()
		if err := ug.Poll(); err != nil {
			return nil, err
		}
		if m%5 == 0 {
			if err := eg.Poll(); err != nil {
				return nil, err
			}
		}
		if m%10 == 0 {
			if err := rollup.Run(); err != nil {
				return nil, err
			}
			for _, t := range tabs {
				if err := t.Tick(); err != nil {
					return nil, err
				}
			}
		}
		if err := queryMix(clk.Now()); err != nil {
			return nil, err
		}
	}

	simSecs := float64(minutes) * 60
	var inserted, returned int64
	for _, t := range tabs {
		s := t.Stats().Snapshot()
		inserted += s.RowsInserted
		returned += s.RowsReturned
	}
	res := &Result{
		Figure: "Rates",
		Title:  "Long-term insert and query rates per shard (§5.2.3, simulated workload)",
	}
	res.Series = append(res.Series, Series{
		Name: "rows per simulated second",
		Points: []Point{
			{Label: "inserted rows/s", Y: float64(inserted) / simSecs},
			{Label: "returned rows/s", Y: float64(returned) / simSecs},
			{Label: "read:write ratio", Y: float64(returned) / float64(inserted)},
		},
	})
	res.Notes = append(res.Notes,
		fmt.Sprintf("paper: 14k inserted, 143k returned per shard (ratio ~10); simulated fleet is %dx smaller, ratio is the shape target",
			30000/int(cfg.Networks*cfg.DevicesPerNet)),
		"the workload is read-heavy partly because aggregators re-read source tables (§5.2.3)")
	return res, nil
}
