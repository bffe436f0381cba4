package core

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"littletable/internal/ltval"
	"littletable/internal/schema"
	"littletable/internal/vfs"
)

// The tablet-set enumeration drives tabletSet the way Table does — the
// same method calls around the same file operations, through the real
// writeDescriptor, cleanOrphans and coldFileName — over a MemFS, and
// explores every interleaving of a few actors up to a bounded depth
// (the small scope hypothesis: protocol bugs show up in short traces).
// After every step it checks, on the live files and on the image a power
// cut would leave, the invariants recovery rests on.
//
// Two tables, a and b, share one cold directory. Table a starts with two
// durable tablets, of rows 0-1 and 2-3; table b starts with one, already
// tiered. A tablet file holds its table's name and its row ids, and a
// row's id is also its timestamp, so insertion order is id order.

const setColdDir = "/db/cold"

// setTable is one table of the enumeration: its tablet set, what the
// descriptor records besides the set, and the actors' state.
type setTable struct {
	name, dir string
	set       tabletSet
	nextSeq   uint64
	nextRow   int64
	coldDir   string
	rows      []int64        // ids in insertion order since the last open
	expired   map[int64]bool // ids an expiry dropped since the last open
	reader    []*diskTablet  // acquired by the reader
	merge     []*diskTablet  // claimed by the merge
	mergeOut  *diskTablet
	tier      []*diskTablet // claimed by the tiering
	tierOut   *diskTablet
}

// setWorld is one state of the enumeration.
type setWorld struct {
	mem  *vfs.MemFS
	fs   *vfs.FaultFS
	tabs []*setTable
	done map[string]bool // one-shot actors that have run
}

// setAction is one step an actor can take.
type setAction struct {
	name string
	// run takes the step, or reports false when it is not enabled.
	run func(w *setWorld) (bool, error)
}

var setSchema = schema.MustNew([]schema.Column{
	{Name: "k", Type: ltval.Int64},
	{Name: "ts", Type: ltval.Timestamp},
}, []string{"k", "ts"})

// newSetWorld builds the starting state, all of it durable.
func newSetWorld() (*setWorld, error) {
	mem := vfs.NewMem()
	w := &setWorld{mem: mem, fs: vfs.NewFault(mem), done: map[string]bool{}}
	for _, name := range []string{"a", "b"} {
		tb := &setTable{name: name, dir: "/db/" + name, nextSeq: 1, expired: map[int64]bool{}}
		if err := w.fs.MkdirAll(tb.dir); err != nil {
			return nil, err
		}
		w.tabs = append(w.tabs, tb)
	}
	a, b := w.tabs[0], w.tabs[1]
	for range 2 {
		if err := w.flush(a); err != nil {
			return nil, err
		}
	}
	if err := w.flush(b); err != nil {
		return nil, err
	}
	if _, err := w.tierCopy(b); err != nil {
		return nil, err
	}
	w.tierCommit(b)
	for _, tb := range w.tabs {
		if err := w.persist(tb); err != nil {
			return nil, err
		}
	}
	for _, dir := range setDirs {
		if err := mem.SyncDir(dir); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// writeTablet writes a tablet file of ids under rec and returns it.
func (w *setWorld) writeTablet(tb *setTable, rec tabletRecord, ids []int64) (*diskTablet, error) {
	var b strings.Builder
	b.WriteString(tb.name)
	for _, id := range ids {
		fmt.Fprintf(&b, " %d", id)
	}
	rec.RowCount, rec.MinTs, rec.MaxTs = int64(len(ids)), slices.Min(ids), slices.Max(ids)
	rec.Bytes = int64(b.Len())
	dt := &diskTablet{rec: rec, path: rec.path(tb.dir)}
	return dt, vfs.WriteFileAtomic(w.fs, dt.path, []byte(b.String()), true)
}

// readTablet returns the table name and ids a tablet file holds.
func readTablet(fsys vfs.FS, path string) (string, []int64, error) {
	data, err := vfs.ReadFile(fsys, path)
	if err != nil {
		return "", nil, err
	}
	f := strings.Fields(string(data))
	var ids []int64
	for _, s := range f[1:] {
		id, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return "", nil, err
		}
		ids = append(ids, id)
	}
	return f[0], ids, nil
}

// delete removes the files of tablets the set released, as
// Table.deleteTablets does.
func (w *setWorld) delete(gone []*diskTablet) {
	for _, dt := range gone {
		_ = w.fs.Remove(dt.path)
	}
}

// persist is Table.persistDescriptor.
func (w *setWorld) persist(tb *setTable) error {
	gen, recs, due := tb.set.Snapshot()
	var err error
	if due {
		d := &descriptor{Name: tb.name, Schema: setSchema, NextSeq: tb.nextSeq, Tablets: recs, ColdDir: tb.coldDir}
		err = writeDescriptor(w.fs, tb.dir, d, true)
	}
	gone, _ := tb.set.Persisted(gen, err, 0)
	w.delete(gone)
	return err
}

// flush commits one new tablet of two rows, as commitWrittenLocked does.
func (w *setWorld) flush(tb *setTable) error {
	ids := []int64{tb.nextRow, tb.nextRow + 1}
	dt, err := w.writeTablet(tb, tabletRecord{File: tabletFileName(tb.nextSeq), Seq: tb.nextSeq}, ids)
	if err != nil {
		return err
	}
	tb.nextSeq++
	tb.nextRow += 2
	tb.rows = append(tb.rows, ids...)
	tb.set.Publish([]*diskTablet{dt}, nil)
	return nil
}

// mergeClaim claims the two oldest unclaimed hot tablets and writes their
// merge, as mergeStep does before its commit.
func (w *setWorld) mergeClaim(tb *setTable) (bool, error) {
	cands := tb.set.Unclaimed(func(dt *diskTablet) bool { return dt.rec.Dir == "" })
	if len(cands) < 2 {
		return false, nil
	}
	cands = cands[:2]
	tb.merge = tb.set.Claim(func(dt *diskTablet) bool { return slices.Contains(cands, dt) })
	var ids []int64
	for _, dt := range tb.merge {
		_, got, err := readTablet(w.fs, dt.path)
		if err != nil {
			return true, err
		}
		ids = append(ids, got...)
	}
	slices.Sort(ids)
	out, err := w.writeTablet(tb, tabletRecord{File: tabletFileName(tb.nextSeq), Seq: tb.nextSeq}, ids)
	tb.nextSeq++
	tb.mergeOut = out
	return true, err
}

// mergeCommit publishes the merge and ends its claim.
func (w *setWorld) mergeCommit(tb *setTable) {
	tb.set.Publish([]*diskTablet{tb.mergeOut}, tb.merge)
	w.delete(tb.set.Unclaim(tb.merge))
	tb.merge, tb.mergeOut = nil, nil
}

// tierCopy claims the oldest hot tablet, records the cold directory
// durably, and copies the tablet there, as TierColdTablets does before
// its publish.
func (w *setWorld) tierCopy(tb *setTable) (bool, error) {
	first := true
	tb.tier = tb.set.Claim(func(dt *diskTablet) bool {
		ok := first && dt.rec.Dir == "" && dt.rec.MaxTs < 2
		first = first && !ok
		return ok
	})
	if len(tb.tier) == 0 {
		return false, nil
	}
	if tb.coldDir != setColdDir {
		if err := w.fs.MkdirAll(setColdDir); err != nil {
			return true, err
		}
		tb.coldDir = setColdDir
		tb.set.Publish(nil, nil)
		if err := w.persist(tb); err != nil {
			return true, err
		}
	}
	dt := tb.tier[0]
	rec := dt.rec
	rec.Dir, rec.File = setColdDir, coldFileName(tb.name, rec.Seq)
	tb.tierOut = &diskTablet{rec: rec, path: rec.path(tb.dir)}
	_, err := vfs.CopyFileAtomic(w.fs, dt.path, tb.tierOut.path, true)
	return true, err
}

// tierCommit publishes the cold copy and ends the claim.
func (w *setWorld) tierCommit(tb *setTable) {
	tb.set.Publish([]*diskTablet{tb.tierOut}, tb.tier)
	w.delete(tb.set.Unclaim(tb.tier))
	tb.tier, tb.tierOut = nil, nil
}

// expire drops the unclaimed tablets whose rows are all older than 2, as
// expireTTL does.
func (w *setWorld) expire(tb *setTable) bool {
	doomed := tb.set.Unclaimed(func(dt *diskTablet) bool { return dt.rec.MaxTs < 2 })
	if len(doomed) == 0 {
		return false
	}
	for _, dt := range doomed {
		_, ids, _ := readTablet(w.fs, dt.path)
		for _, id := range ids {
			tb.expired[id] = true
		}
	}
	tb.set.Publish(nil, doomed)
	return true
}

// crash takes the image a power cut leaves now and reopens both tables
// from it, as OpenTable does: read the descriptor, clean orphans, and
// start a set that names the descriptor's tablets.
func (w *setWorld) crash() error {
	img := w.mem.CrashClone()
	w.mem, w.fs = img, vfs.NewFault(img)
	for _, tb := range w.tabs {
		d, err := readDescriptor(img, tb.dir)
		if err != nil {
			return err
		}
		if err := cleanOrphans(img, tb.dir, d); err != nil {
			return err
		}
		*tb = setTable{name: tb.name, dir: tb.dir, nextSeq: d.NextSeq, nextRow: tb.nextRow, coldDir: d.ColdDir, expired: map[int64]bool{}}
		var live []*diskTablet
		for _, rec := range d.Tablets {
			_, ids, err := readTablet(img, rec.path(tb.dir))
			if err != nil {
				return err
			}
			tb.rows = append(tb.rows, ids...)
			live = append(live, &diskTablet{rec: rec, path: rec.path(tb.dir)})
		}
		slices.Sort(tb.rows)
		tb.set.Persisted(tb.set.Publish(live, nil), nil, 0)
	}
	return nil
}

// setActions are the actors' steps. Each one-shot step runs at most once
// per trace; the persists may repeat.
var setActions = []setAction{
	{"flush-a", func(w *setWorld) (bool, error) { return true, w.flush(w.tabs[0]) }},
	{"flush-b", func(w *setWorld) (bool, error) { return true, w.flush(w.tabs[1]) }},
	{"merge-claim", func(w *setWorld) (bool, error) { return w.mergeClaim(w.tabs[0]) }},
	{"merge-commit", func(w *setWorld) (bool, error) {
		if w.tabs[0].mergeOut == nil {
			return false, nil
		}
		w.mergeCommit(w.tabs[0])
		return true, nil
	}},
	{"tier-copy", func(w *setWorld) (bool, error) { return w.tierCopy(w.tabs[0]) }},
	{"tier-commit", func(w *setWorld) (bool, error) {
		if w.tabs[0].tierOut == nil {
			return false, nil
		}
		w.tierCommit(w.tabs[0])
		return true, nil
	}},
	{"expire", func(w *setWorld) (bool, error) { return w.expire(w.tabs[0]), nil }},
	{"read", func(w *setWorld) (bool, error) {
		w.tabs[0].reader = w.tabs[0].set.Acquire(nil)
		return true, nil
	}},
	{"read-done", func(w *setWorld) (bool, error) {
		tb := w.tabs[0]
		if tb.reader == nil {
			return false, nil
		}
		w.delete(tb.set.Release(tb.reader))
		tb.reader = nil
		return true, nil
	}},
	{"persist", func(w *setWorld) (bool, error) {
		for _, tb := range w.tabs {
			if err := w.persist(tb); err != nil {
				return true, err
			}
		}
		return true, nil
	}},
	{"persist-fail", func(w *setWorld) (bool, error) {
		tb := w.tabs[0]
		if _, _, due := tb.set.Snapshot(); !due {
			return false, nil
		}
		w.fs.Inject(&vfs.Fault{Op: vfs.OpRename, Path: filepath.Join(tb.dir, descriptorFile)})
		if err := w.persist(tb); err == nil {
			return true, fmt.Errorf("the injected descriptor fault did not fire")
		}
		return true, nil
	}},
	{"crash", func(w *setWorld) (bool, error) { return true, w.crash() }},
}

// repeatable names the steps that may run more than once in a trace.
var repeatable = map[string]bool{"persist": true, "persist-fail": true}

// step runs the named action on w; ok is false when it is not enabled.
func (w *setWorld) step(name string) (ok bool, err error) {
	if w.done[name] && !repeatable[name] {
		return false, nil
	}
	for _, a := range setActions {
		if a.name == name {
			ok, err = a.run(w)
			if ok {
				w.done[name] = true
			}
			return ok, err
		}
	}
	return false, fmt.Errorf("no step %q", name)
}

// setDirs are the directories the enumeration's tables write.
var setDirs = []string{"/db/a", "/db/b", setColdDir}

// setFile is one file of a view of the enumeration's directories.
type setFile struct {
	path string
	data string
}

// setFiles lists the files in the directories of the tables of fsys.
func setFiles(fsys vfs.FS) ([]setFile, error) {
	var out []setFile
	for _, dir := range setDirs {
		ents, err := fsys.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		for _, e := range ents {
			path := filepath.Join(dir, e.Name())
			data, err := vfs.ReadFile(fsys, path)
			if err != nil {
				return nil, err
			}
			out = append(out, setFile{path, string(data)})
		}
	}
	return out, nil
}

// clone returns an independent copy of w, whose files are live and whose
// crash image's are durable. Every file write here is synced, so only
// directory operations can be pending, and the files are rebuilt from the
// two views: the image's durably, then the live differences as pending
// operations.
func (w *setWorld) clone(live, durable []setFile) (*setWorld, error) {
	mem := vfs.NewMem()
	put := func(f setFile) error {
		out, err := mem.Create(f.path)
		if err == nil {
			_, err = out.Write([]byte(f.data))
		}
		if err == nil {
			err = out.Sync()
		}
		if err == nil {
			err = out.Close()
		}
		return err
	}
	was := map[string]string{}
	for _, dir := range setDirs {
		if err := mem.MkdirAll(dir); err != nil {
			return nil, err
		}
	}
	for _, f := range durable {
		was[f.path] = f.data
		if err := put(f); err != nil {
			return nil, err
		}
	}
	for _, dir := range setDirs {
		if err := mem.SyncDir(dir); err != nil {
			return nil, err
		}
	}
	for _, f := range live {
		if data, ok := was[f.path]; !ok || data != f.data {
			if err := put(f); err != nil {
				return nil, err
			}
		}
		delete(was, f.path)
	}
	for path := range was {
		if err := mem.Remove(path); err != nil {
			return nil, err
		}
	}
	c := &setWorld{mem: mem, fs: vfs.NewFault(mem), done: maps.Clone(w.done)}
	copies := map[*diskTablet]*diskTablet{}
	cp := func(l []*diskTablet) []*diskTablet {
		if l == nil {
			return nil
		}
		out := make([]*diskTablet, len(l))
		for i, dt := range l {
			if copies[dt] == nil {
				dc := *dt
				copies[dt] = &dc
			}
			out[i] = copies[dt]
		}
		return out
	}
	for _, tb := range w.tabs {
		ct := *tb
		ct.set.live, ct.set.retired = cp(tb.set.live), cp(tb.set.retired)
		ct.reader, ct.merge, ct.tier = cp(tb.reader), cp(tb.merge), cp(tb.tier)
		if tb.mergeOut != nil {
			ct.mergeOut = cp([]*diskTablet{tb.mergeOut})[0]
		}
		if tb.tierOut != nil {
			ct.tierOut = cp([]*diskTablet{tb.tierOut})[0]
		}
		ct.rows, ct.expired = slices.Clone(tb.rows), maps.Clone(tb.expired)
		c.tabs = append(c.tabs, &ct)
	}
	return c, nil
}

// replaySet replays a trace of step names from the starting state,
// checking after every step, and returns the first violation; ok is
// false when a step of the trace is not enabled.
func replaySet(trace []string) (ok bool, violation error) {
	w, err := newSetWorld()
	if err != nil {
		return true, err
	}
	descs := map[string]*descriptor{}
	for _, s := range trace {
		ok, err := w.step(s)
		if !ok && err == nil {
			return false, nil
		}
		if err == nil {
			_, err = w.check(descs)
		}
		if err != nil {
			return true, fmt.Errorf("after %s: %w", s, err)
		}
	}
	return true, nil
}

// check verifies the invariants on the live files and on the crash
// image, and returns the image and the first violation. descs caches
// parsed descriptors by their bytes.
func (w *setWorld) check(descs map[string]*descriptor) (*vfs.MemFS, error) {
	img := w.mem.CrashClone()
	for _, view := range []struct {
		name string
		fs   vfs.FS
	}{{"live", w.mem}, {"crash image", img}} {
		owner := map[string]string{}
		for _, tb := range w.tabs {
			data, err := vfs.ReadFile(view.fs, filepath.Join(tb.dir, descriptorFile))
			d := descs[string(data)]
			if err == nil && d == nil {
				d, err = readDescriptor(view.fs, tb.dir)
				descs[string(data)] = d
			}
			if err != nil {
				return img, fmt.Errorf("%s: table %s: %v", view.name, tb.name, err)
			}
			var got []int64
			for _, rec := range d.Tablets {
				path := rec.path(tb.dir)
				if o, ok := owner[path]; ok {
					return img, fmt.Errorf("%s: tables %s and %s both name %s", view.name, o, tb.name, path)
				}
				owner[path] = tb.name
				name, ids, err := readTablet(view.fs, path)
				if err != nil {
					return img, fmt.Errorf("%s: table %s: its descriptor names %s: %v", view.name, tb.name, path, err)
				}
				if name != tb.name {
					return img, fmt.Errorf("%s: table %s's descriptor names %s, which holds table %s's rows", view.name, tb.name, path, name)
				}
				got = append(got, ids...)
			}
			if err := tb.checkPrefix(got); err != nil {
				return img, fmt.Errorf("%s: table %s: %v", view.name, tb.name, err)
			}
		}
	}
	return img, w.checkOrphans()
}

// checkPrefix checks that ids, a table's recovered rows, are an
// insertion-order prefix of its rows (§3.4.3), less rows an expiry
// dropped: every row before the newest recovered one was recovered or
// expired, and none is there twice.
func (tb *setTable) checkPrefix(ids []int64) error {
	seen := map[int64]bool{}
	last := -1
	for _, id := range ids {
		if seen[id] {
			return fmt.Errorf("row %d recovered twice", id)
		}
		seen[id] = true
		i := slices.Index(tb.rows, id)
		if i < 0 {
			return fmt.Errorf("row %d recovered but never inserted", id)
		}
		last = max(last, i)
	}
	for _, id := range tb.rows[:last+1] {
		if !seen[id] && !tb.expired[id] {
			return fmt.Errorf("rows %v are not an insertion-order prefix of %v: row %d is missing", ids, tb.rows, id)
		}
	}
	return nil
}

// checkOrphans checks, once no reader or claim holds a tablet and every
// change is durable, that the table and cold directories hold exactly
// the tablet files the descriptors name.
func (w *setWorld) checkOrphans() error {
	named := map[string]bool{}
	for _, tb := range w.tabs {
		if _, _, due := tb.set.Snapshot(); due || tb.reader != nil || tb.merge != nil || tb.tier != nil {
			return nil
		}
		if len(tb.set.retired) > 0 {
			return fmt.Errorf("table %s: %d dropped tablets outlived a durable descriptor and their readers", tb.name, len(tb.set.retired))
		}
		for _, dt := range tb.set.live {
			named[dt.path] = true
		}
	}
	dirs := []string{setColdDir}
	for _, tb := range w.tabs {
		dirs = append(dirs, tb.dir)
	}
	for _, dir := range dirs {
		ents, err := w.mem.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if p := filepath.Join(dir, e.Name()); strings.HasSuffix(p, ".tab") && !named[p] {
				return fmt.Errorf("orphan %s: every change is durable and nothing holds it", p)
			}
		}
	}
	return nil
}

// key is a canonical description of w, whose files are live and whose
// crash image's are durable: two states with one key behave alike from
// here on, so the enumeration expands only one of them.
func (w *setWorld) key(live, durable []setFile) string {
	var b strings.Builder
	dts := func(label string, l []*diskTablet, durable uint64) {
		b.WriteString(label)
		for _, dt := range l {
			fmt.Fprintf(&b, " %s/%d/%d/%v/%v", dt.rec.Dir, dt.rec.Seq, dt.refs, dt.busy, dt.dropGen > durable)
		}
	}
	for _, tb := range w.tabs {
		_, _, due := tb.set.Snapshot()
		fmt.Fprintf(&b, "|%s due=%v fails=%v cold=%s seq=%d rows=%v exp=%d ", tb.name, due, tb.set.fails > 0, tb.coldDir, tb.nextSeq, tb.rows, len(tb.expired))
		dts("live", tb.set.live, tb.set.durable)
		dts(" retired", tb.set.retired, tb.set.durable)
		dts(" reader", tb.reader, tb.set.durable)
		dts(" merge", tb.merge, tb.set.durable)
		dts(" tier", tb.tier, tb.set.durable)
	}
	var done []string
	for name := range w.done {
		done = append(done, name)
	}
	sort.Strings(done)
	fmt.Fprintf(&b, "|done=%v", done)
	for _, files := range [][]setFile{live, durable} {
		b.WriteString("|fs")
		for _, f := range files {
			fmt.Fprintf(&b, " %s=%d:%s", f.path, len(f.data), f.data)
		}
	}
	return b.String()
}

// setDepth is the enumeration's depth: LTSET_DEPTH when set (make
// tabletset runs 8), else 6.
func setDepth() int {
	if v := os.Getenv("LTSET_DEPTH"); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			return n
		}
	}
	return 6
}

// TestTabletSetInterleavings enumerates every interleaving of the actors
// up to setDepth steps, merging traces that reach one state, and checks
// after every step: every file a possibly-durable descriptor — the live
// one or the one a power cut leaves — names exists and holds its own
// table's rows; no two tables name one file; those rows are an
// insertion-order prefix; and once nothing holds a tablet and every
// change is durable, no tablet file is left that no descriptor names. A
// failure prints its trace as the step list replaySet rebuilds.
func TestTabletSetInterleavings(t *testing.T) {
	start := time.Now()
	depth := setDepth()
	w, err := newSetWorld()
	if err != nil {
		t.Fatal(err)
	}
	descs := map[string]*descriptor{}
	// views checks w and lists its live files and its crash image's.
	views := func(w *setWorld) (live, durable []setFile, err error) {
		img, err := w.check(descs)
		if err == nil {
			live, err = setFiles(w.mem)
		}
		if err == nil {
			durable, err = setFiles(img)
		}
		return live, durable, err
	}
	live, durable, err := views(w)
	if err != nil {
		t.Fatalf("starting state: %v", err)
	}
	// seen maps each state reached to the most steps left after it, so a
	// state reached again is expanded again only with more steps to go.
	seen := map[string]int{w.key(live, durable): depth}
	steps := 0
	var walk func(w *setWorld, live, durable []setFile, trace []string)
	walk = func(w *setWorld, live, durable []setFile, trace []string) {
		var c *setWorld
		for _, a := range setActions {
			// A step that is not enabled changes nothing, so its copy
			// serves the next action.
			if c == nil {
				if c, err = w.clone(live, durable); err != nil {
					t.Fatal(err)
				}
			}
			ok, err := c.step(a.name)
			if !ok && err == nil {
				continue
			}
			steps++
			at := append(slices.Clip(trace), a.name)
			var clive, cdurable []setFile
			if err == nil {
				clive, cdurable, err = views(c)
			}
			if err != nil {
				failSet(t, at, err)
			}
			k, left := c.key(clive, cdurable), depth-len(at)
			if n, ok := seen[k]; left > 0 && (!ok || n < left) {
				seen[k] = left
				walk(c, clive, cdurable, at)
			} else if !ok {
				seen[k] = left
			}
			c = nil
		}
	}
	walk(w, live, durable, nil)
	t.Logf("depth %d: %d steps, %d distinct states, %v", depth, steps, len(seen), time.Since(start).Round(time.Millisecond))
}

// failSet reports a violation with its trace, first shortened by
// dropping steps while the trace still replays to a violation, and
// writes the trace to LTCRASH_ARTIFACT, when set, for CI to keep.
func failSet(t *testing.T, trace []string, err error) {
	t.Helper()
	for i := 0; i < len(trace); {
		shorter := slices.Delete(slices.Clone(trace), i, i+1)
		if ok, verr := replaySet(shorter); ok && verr != nil {
			trace, err, i = shorter, verr, 0
			continue
		}
		i++
	}
	list := strings.Join(trace, " ")
	if dir := os.Getenv("LTCRASH_ARTIFACT"); dir != "" {
		if merr := os.MkdirAll(dir, 0o755); merr == nil {
			_ = os.WriteFile(filepath.Join(dir, "TestTabletSetInterleavings.steps.txt"), []byte(list+"\n"+err.Error()+"\n"), 0o644)
		}
	}
	t.Fatalf("steps [%s]: %v\nreplay: replaySet(strings.Fields(%q))", list, err, list)
}
