package metric

import (
	"bytes"
	"sync/atomic"
	"testing"
)

type fields[T any] struct {
	Hits   T `metric:"hits" help:"Cache hits"`
	Depth  T `metric:"depth" help:"Queue depth" kind:"gauge"`
	hidden int64
}

type live fields[atomic.Int64]
type plain fields[int64]

func TestReadSnapshotAndProm(t *testing.T) {
	var c live
	c.Hits.Add(3)
	c.Depth.Add(-1)
	c.hidden = 9

	got := Read(&c)
	want := List{
		{Name: "hits", Help: "Cache hits", Value: 3},
		{Name: "depth", Help: "Queue depth", Gauge: true, Value: -1},
	}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("Read: got %+v want %+v", got, want)
	}

	var snap plain
	Snapshot(&snap, &c)
	if snap.Hits != 3 || snap.Depth != -1 {
		t.Fatalf("Snapshot: %+v", snap)
	}
	if r := Read(&snap); r[0] != want[0] || r[1] != want[1] {
		t.Fatalf("Read of the plain copy: %+v", r)
	}

	var buf bytes.Buffer
	got.WriteProm(&buf, "lt_")
	const prom = "# HELP lt_hits_total Cache hits\n# TYPE lt_hits_total counter\nlt_hits_total 3\n" +
		"# HELP lt_depth Queue depth\n# TYPE lt_depth gauge\nlt_depth -1\n"
	if buf.String() != prom {
		t.Fatalf("WriteProm:\n%s\nwant:\n%s", buf.String(), prom)
	}
}

func TestGetAndAdd(t *testing.T) {
	a := List{{Name: "x", Value: 1}, {Name: "y", Value: 2}}
	b := List{{Name: "y", Value: 10}, {Name: "z", Value: 5}}
	sum := List(nil).Add(a).Add(b)
	if sum.Get("x") != 1 || sum.Get("y") != 12 || sum.Get("z") != 5 || sum.Get("absent") != 0 || len(sum) != 3 {
		t.Fatalf("Add: %+v", sum)
	}
	if a[1].Value != 2 {
		t.Fatalf("Add into an empty list aliased its argument: %+v", a)
	}
}
