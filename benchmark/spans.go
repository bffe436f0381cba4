package main

import (
	"bufio"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"littletable/internal/vfs"
)

// span is one timed interval at a layer boundary the benchmark can reach
// from outside the program. Spans of one client operation share Op; Parent
// is the span that caused this one (0 for a root). Replay marks a span
// produced after the measured phase by re-running a sampled operation one
// layer down — its duration nests under its parent, its wall-clock
// position does not.
type span struct {
	ID, Parent, Op int64
	Name           string
	Start, End     int64 // ns since the tracer was created
	Replay         bool
}

// tracer keeps spans in memory until the run ends. The harness is a
// single closed-loop client, so "the operation in flight" is one global:
// filesystem calls made by a server goroutine while an operation is open
// are attributed to it.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	next  int64

	on  atomic.Bool  // spans are recorded only while set
	cur atomic.Int64 // root span of the operation in flight (0 = none)
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span under the operation in flight. Safe on a
// nil tracer (untraced runs) and when recording is off.
func (t *tracer) add(name string, start, end time.Time) int64 {
	if t == nil || !t.on.Load() {
		return 0
	}
	op := t.cur.Load()
	return t.put(span{Parent: op, Op: op, Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
}

func (t *tracer) put(s span) int64 {
	t.mu.Lock()
	t.next++
	s.ID = t.next
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

// beginOp opens a root span for a client operation and makes it the
// operation in flight; endOp closes it. Both are no-ops when off.
func (t *tracer) beginOp() int64 {
	if t == nil || !t.on.Load() {
		return 0
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	t.cur.Store(id)
	return id
}

func (t *tracer) endOp(id int64, name string, start, end time.Time) {
	if id == 0 {
		return
	}
	t.cur.Store(0)
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Op: id, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	t.mu.Unlock()
}

// replay records a replayed child of parent (a root or another replay).
func (t *tracer) replay(parent, op int64, name string, start time.Time, d time.Duration) int64 {
	s := int64(start.Sub(t.t0))
	return t.put(span{Parent: parent, Op: op, Name: name, Start: s, End: s + int64(d), Replay: true})
}

// write dumps the spans as a JSON array, one span per line.
func (t *tracer) write(fsys vfs.FS, path string) error {
	f, err := fsys.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	fmt.Fprintln(w, "[")
	for i, s := range t.spans {
		sep := ","
		if i == len(t.spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"op":%d,"name":%q,"start":%d,"end":%d,"replay":%t}%s`+"\n",
			s.ID, s.Parent, s.Op, s.Name, s.Start, s.End, s.Replay, sep)
	}
	fmt.Fprintln(w, "]")
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
