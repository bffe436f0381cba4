// Package metric is the one place a counter is described. A stats struct
// declares each field once, with its name, help text and kind in the
// field's tag:
//
//	RowsInserted atomic.Int64 `metric:"rows_inserted" help:"Rows inserted"`
//	MemTablets   int64        `metric:"mem_tablets" help:"In-memory tablets" kind:"gauge"`
//
// and every other form — the plain-int64 snapshot, the wire payload, the
// Prometheus exposition, SHOW STATS — is derived from that declaration by
// Read. Fields are atomic.Int64 (live counters) or int64 (values computed
// when asked). Derivation reflects over the struct, so it belongs on the
// path that asks for stats, never on the one that counts.
package metric

import (
	"fmt"
	"io"
	"reflect"
	"sync/atomic"
)

// Sample is one metric at one instant. Name is the short snake_case name
// that keys the wire payload and SHOW STATS; Help and Gauge come from the
// declaration and are empty on samples decoded from the wire.
type Sample struct {
	Name  string
	Help  string
	Gauge bool // false: monotonic counter
	Value int64
}

// List is a set of samples in declaration order.
type List []Sample

var atomicInt64 = reflect.TypeOf(atomic.Int64{})

// Read returns the tagged fields of the structs the arguments point to,
// in argument then field order, with their current values. It panics on
// a tagged field that is neither atomic.Int64 nor int64: that is a
// declaration bug.
func Read(structs ...any) List {
	n := 0
	for _, v := range structs {
		n += reflect.TypeOf(v).Elem().NumField()
	}
	out := make(List, 0, n)
	for _, v := range structs {
		rv := reflect.ValueOf(v).Elem()
		rt := rv.Type()
		for i := 0; i < rt.NumField(); i++ {
			f := rt.Field(i)
			name, ok := f.Tag.Lookup("metric")
			if !ok {
				continue
			}
			out = append(out, Sample{
				Name:  name,
				Help:  f.Tag.Get("help"),
				Gauge: f.Tag.Get("kind") == "gauge",
				Value: load(rv.Field(i)),
			})
		}
	}
	return out
}

func load(f reflect.Value) int64 {
	if f.Type() == atomicInt64 {
		return f.Addr().Interface().(*atomic.Int64).Load()
	}
	return f.Int()
}

// Snapshot copies every tagged field of the struct src points to into the
// same-index int64 field of the struct dst points to: the plain copy of a
// struct of atomic.Int64 counters declared from the same field list.
func Snapshot(dst, src any) {
	d, s := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src).Elem()
	for i := 0; i < s.NumField(); i++ {
		if _, ok := s.Type().Field(i).Tag.Lookup("metric"); ok {
			d.Field(i).SetInt(load(s.Field(i)))
		}
	}
}

// Get returns the named sample's value, or 0 when the list has no such
// name — how a reader skips metrics it does not know and tolerates a peer
// that lacks one it does.
func (l List) Get(name string) int64 {
	for _, s := range l {
		if s.Name == name {
			return s.Value
		}
	}
	return 0
}

// Add sums other into l by name, appending names l lacks, and returns the
// result.
func (l List) Add(other List) List {
next:
	for _, o := range other {
		for i := range l {
			if l[i].Name == o.Name {
				l[i].Value += o.Value
				continue next
			}
		}
		l = append(l, o)
	}
	return l
}

// WriteHeader writes the family's # HELP and # TYPE lines and returns its
// Prometheus name — prefix + Name, with the conventional _total suffix on
// counters — for the sample lines that follow.
func (s Sample) WriteHeader(w io.Writer, prefix string) string {
	name, typ := prefix+s.Name+"_total", "counter"
	if s.Gauge {
		name, typ = prefix+s.Name, "gauge"
	}
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, s.Help, name, typ)
	return name
}

// WriteProm renders unlabelled samples in the Prometheus text format.
func (l List) WriteProm(w io.Writer, prefix string) {
	for _, s := range l {
		fmt.Fprintf(w, "%s %d\n", s.WriteHeader(w, prefix), s.Value)
	}
}
