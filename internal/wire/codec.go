package wire

import (
	"bytes"
	"sync"

	"littletable/internal/agg"
	"littletable/internal/core"
	"littletable/internal/ltval"
	"littletable/internal/metric"
	"littletable/internal/schema"
)

// Each cold message — one sent once per request, not once per row —
// declares its payload once: a fields method visits its fields in wire
// order through a codec, which appends them when encoding and reads them
// back when decoding, so the two directions cannot drift apart. The hot
// messages keep hand codecs: Insert, Rows, RowResult, ScatterRows and
// AggResult carry rows or group states whose cost is per row, encoded
// under a schema the message does not declare.

// Message is a payload declared by its fields method.
type Message interface {
	fields(c *codec)
}

// codec visits one message's fields: it appends each to b or, when
// decoding, reads each from d into the message. err keeps the first
// encode failure.
type codec struct {
	decoding bool
	b        Buf
	d        Dec
	err      error
}

// codecs recycles codec state. A fields method is called through an
// interface, so the codec it is handed escapes to the heap (fmt pools its
// printer state for the same reason). The encode buffer is recycled too,
// and Encode copies each payload out at its exact size: one allocation a
// message, where growing a fresh buffer took one a doubling.
var codecs = sync.Pool{New: func() any { return new(codec) }}

// maxPooledBuf caps the encode buffer a pooled codec keeps, so one large
// migration chunk does not stay pinned in the pool.
const maxPooledBuf = 64 << 10

// Encode returns m's payload. It fails only when a schema m carries does
// not marshal.
func Encode(m Message) ([]byte, error) {
	c := codecs.Get().(*codec)
	m.fields(c)
	p, err := bytes.Clone(c.b.B), c.err
	c.release()
	return p, err
}

// Decode parses a payload into a new T, rejecting trailing bytes. Byte
// slices in the message alias the payload.
func Decode[T any, PT interface {
	*T
	Message
}](p []byte) (*T, error) {
	m := PT(new(T))
	return m, decode(p, m)
}

// decode parses a payload into m.
func decode(p []byte, m Message) error {
	c := codecs.Get().(*codec)
	c.decoding, c.d.B = true, p
	m.fields(c)
	err := c.d.Done()
	c.release()
	return err
}

func (c *codec) release() {
	buf := c.b.B[:0]
	if cap(buf) > maxPooledBuf {
		buf = nil
	}
	*c = codec{b: Buf{B: buf}}
	codecs.Put(c)
}

// Send encodes m and writes it as one t message.
func (c *Conn) Send(t MsgType, m Message) error {
	p, err := Encode(m)
	if err != nil {
		return err
	}
	return c.WriteMsg(t, p)
}

// visit reads *v with dec when decoding and writes it with enc otherwise.
func visit[T any](c *codec, v *T, enc func(*Buf, T), dec func(*Dec) T) {
	if c.decoding {
		*v = dec(&c.d)
	} else {
		enc(&c.b, *v)
	}
}

func (c *codec) u8(v *uint8)             { visit(c, v, (*Buf).U8, (*Dec).U8) }
func (c *codec) u32(v *uint32)           { visit(c, v, (*Buf).U32, (*Dec).U32) }
func (c *codec) u64(v *uint64)           { visit(c, v, (*Buf).U64, (*Dec).U64) }
func (c *codec) i64(v *int64)            { visit(c, v, (*Buf).I64, (*Dec).I64) }
func (c *codec) f64(v *float64)          { visit(c, v, (*Buf).F64, (*Dec).F64) }
func (c *codec) boolean(v *bool)         { visit(c, v, (*Buf).Bool, (*Dec).Bool) }
func (c *codec) str(v *string)           { visit(c, v, (*Buf).String, (*Dec).String) }
func (c *codec) blob(v *[]byte)          { visit(c, v, (*Buf).Bytes, (*Dec).Bytes) }
func (c *codec) value(v *ltval.Value)    { visit(c, v, (*Buf).Value, (*Dec).Value) }
func (c *codec) values(v *[]ltval.Value) { visit(c, v, (*Buf).Values, (*Dec).Values) }

// schema visits a schema; an encode failure is kept in err.
func (c *codec) schema(v **schema.Schema) {
	if c.decoding {
		*v = c.d.Schema()
	} else if err := c.b.Schema(*v); err != nil && c.err == nil {
		c.err = err
	}
}

// u32int visits an int carried as a u32; encoding truncates it.
func (c *codec) u32int(v *int) {
	visit(c, v, func(b *Buf, n int) { b.U32(uint32(n)) }, func(d *Dec) int { return int(d.U32()) })
}

// limit visits a row limit carried as a u32; encoding clamps it into one.
func (c *codec) limit(v *int) {
	visit(c, v, func(b *Buf, n int) { b.U32(uint32(min(uint(max(n, 0)), 1<<32-1))) }, func(d *Dec) int { return int(d.U32()) })
}

// list visits a list's count prefix and returns the list, made that long
// when decoding; the caller then visits each element. Decoding rejects a
// count the rest of the payload cannot hold at least bytes an element,
// before allocating anything for it.
func list[T any](c *codec, l *[]T, least int) []T {
	n := uint32(len(*l))
	c.u32(&n)
	if c.decoding && n > 0 {
		if c.d.Err == nil && int(n) > (len(c.d.B)-c.d.off)/least {
			c.d.fail("list count")
		}
		if c.d.Err == nil {
			*l = make([]T, n)
		}
	}
	return *l
}

// box visits a query box: each key bound as a presence byte (set when the
// bound is non-nil), its values and its inclusivity, then the time
// bounds. With order set it also visits the direction and the row limit,
// which a Delete does not carry. A bound whose presence byte is zero
// decodes as nil whatever values follow it, and so does an empty bound:
// both mean unbounded.
func (c *codec) box(q *core.Query, order bool) {
	c.bound(&q.Lower, &q.LowerInc)
	c.bound(&q.Upper, &q.UpperInc)
	c.i64(&q.MinTs)
	c.i64(&q.MaxTs)
	if order {
		c.boolean(&q.Descending)
		c.limit(&q.Limit)
	}
}

func (c *codec) bound(vs *[]ltval.Value, inc *bool) {
	has := *vs != nil
	c.boolean(&has)
	c.values(vs)
	if c.decoding && !has {
		*vs = nil
	}
	c.boolean(inc)
}

// aggMin is the smallest encoding of one aggregate: its function, an
// empty column name's length prefix and the quantile.
const aggMin = 1 + 4 + 8

// spec visits an aggregation spec. Decoding rejects an unknown function.
func (c *codec) spec(s *agg.Spec) {
	c.i64(&s.BucketWidth)
	c.u32int(&s.GroupCols)
	for i := range list(c, &s.Aggs, aggMin) {
		a := &s.Aggs[i]
		c.u8((*uint8)(&a.Func))
		c.str(&a.Col)
		c.f64(&a.Q)
		if c.decoding && c.d.Err == nil && !a.Func.Valid() {
			c.d.fail("agg func")
		}
	}
}

// statEntryMin is the smallest encoding of one stat list entry: an empty
// name's length prefix plus the value.
const statEntryMin = 4 + 8

// stats visits a stat list: (name, value) pairs. Entries are keyed by
// name, so either side may add a metric without the other noticing; help
// text and kind stay in the declaring process. Decoding rejects a name
// that appears twice, which by-name readers would otherwise half-see.
func (c *codec) stats(l *metric.List) {
	for i := range list(c, (*[]metric.Sample)(l), statEntryMin) {
		c.str(&(*l)[i].Name)
		c.i64(&(*l)[i].Value)
	}
	if !c.decoding || c.d.Err != nil {
		return
	}
	seen := make(map[string]bool, len(*l))
	for _, s := range *l {
		if seen[s.Name] {
			c.d.fail("duplicate stat " + s.Name)
			return
		}
		seen[s.Name] = true
	}
}
