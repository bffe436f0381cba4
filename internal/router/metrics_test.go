package router

import (
	"bytes"
	"context"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"littletable/internal/schema"
	"littletable/internal/wire"
)

// TestMetricsFamiliesGolden pins the router's /metrics metric names, HELP
// and TYPE lines — in order — to testdata/metrics_families.golden,
// captured from the exporter's hand-written table before the counters
// were derived from their declarations (PR 15).
func TestMetricsFamiliesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/metrics_families.golden")
	if err != nil {
		t.Fatal(err)
	}
	r, _ := startRouter(t, Options{}, startShard(t))
	var buf bytes.Buffer
	r.WriteMetrics(&buf)
	var got, samples []string
	for _, l := range strings.SplitAfter(buf.String(), "\n") {
		if strings.HasPrefix(l, "# ") {
			got = append(got, l)
		} else if l != "" {
			samples = append(samples, l)
		}
	}
	if strings.Join(got, "") != string(want) {
		t.Errorf("metric families differ from the golden\n got:\n%s\nwant:\n%s", strings.Join(got, ""), want)
	}
	if len(samples) != len(got)/2 {
		t.Errorf("%d sample lines for %d families (one shard)", len(samples), len(got)/2)
	}
}

// TestRouterAnswersEveryRequest sends every request type in wire.Requests
// to the router with an empty payload and requires anything but dispatch's
// "unknown message type" default: a row added to the table with a route
// the router has no arm for fails here.
func TestRouterAnswersEveryRequest(t *testing.T) {
	_, addr := startRouter(t, Options{}, startShard(t))
	for _, req := range wire.Requests {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		wc := wire.NewConn(conn)
		if err := wc.WriteMsg(req.Type, nil); err != nil {
			t.Fatalf("%s: %v", req.Name, err)
		}
		if mt, payload, err := wc.ReadMsg(); err == nil && mt == wire.MsgError {
			if em, derr := wire.Decode[wire.ErrorMsg](payload); derr == nil && strings.Contains(em.Message, "unknown message type") {
				t.Errorf("%s (route %d): router does not know it: %s", req.Name, req.Route, em.Message)
			}
		}
		conn.Close()
	}
}

// TestStatsThroughRouter: MsgServerStats through the router is the
// by-name sum of every shard's list, and MsgRouterStats carries the
// router's own counters in the same list form.
func TestStatsThroughRouter(t *testing.T) {
	a, b := startShard(t), startShard(t)
	_, addr := startRouter(t, Options{}, a, b)
	c := fastClient(t, addr)
	ctx := context.Background()

	sum, err := c.ServerStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	one := a.srv.Metrics()
	if len(sum) != len(one) {
		t.Fatalf("summed list has %d entries, one shard's has %d: %+v", len(sum), len(one), sum)
	}
	for i := range one {
		if sum[i].Name != one[i].Name {
			t.Errorf("entry %d: %q, want %q", i, sum[i].Name, one[i].Name)
		}
	}
	// Each shard counts the stats request it is serving (a concurrent
	// health probe may add one).
	if got := sum.Get("requests_in_flight"); got < 2 {
		t.Errorf("requests_in_flight summed over 2 shards = %d, want >= 2", got)
	}

	if err := c.CreateTable("t1", testSchema(), 0); err != nil {
		t.Fatal(err)
	}
	tab, err := c.OpenTable("t1")
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.InsertNow([]schema.Row{row(1, 1)}); err != nil {
		t.Fatal(err)
	}
	rs, err := c.RouterStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Counters.Get("routed_inserts") != 1 || rs.Counters.Get("scatter_fanout") < 2 || len(rs.Shards) != 2 {
		t.Errorf("router stats: %+v", rs)
	}
}
