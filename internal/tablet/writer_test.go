package tablet

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"testing"

	"littletable/internal/block"
	"littletable/internal/ltval"
	"littletable/internal/race"
	"littletable/internal/schema"
)

// TestWriterAppendDoesNotAllocate is the tier-1 guard on the write path:
// once its buffers have grown, a Writer allocates nothing for a row that
// fits the current block, and at most two objects for the row that
// completes one — the block index entry's copy of the last key, plus the
// block index's own amortised growth.
func TestWriterAppendDoesNotAllocate(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	const rowsHint = 100000
	for _, enc := range []struct {
		name string
		opts WriterOptions
	}{{"columnar", WriterOptions{RowsHint: rowsHint}}, {"legacy", WriterOptions{Encoding: block.ModeLegacy, RowsHint: rowsHint}}} {
		w, err := Create(filepath.Join(t.TempDir(), "t.tab"), testSchema(t), enc.opts)
		if err != nil {
			t.Fatal(err)
		}
		// One row and payload buffer, rewritten for every row; the payload
		// is hashed so blocks compress about as much as real ones.
		r := row(0, 0, 0, nil)
		payload := make([]byte, 0, 32)
		var i int64
		appendNext := func() {
			payload = strconv.AppendUint(append(payload[:0], "payload-"...), uint64(i)*0x9e3779b97f4a7c15, 16)
			r[0], r[1], r[2], r[3] = ltval.NewInt64(i/1000), ltval.NewInt64(i/100%10), ltval.NewTimestamp(i%100*1000), ltval.NewBlob(payload)
			if err := w.Append(r); err != nil {
				t.Fatal(err)
			}
			i++
		}
		fillBlock := func() {
			for n := len(w.ft.blocks); len(w.ft.blocks) == n; {
				appendNext()
			}
		}
		// Warm up until the output buffer has reached its bound, so every
		// buffer the writer owns has grown to its steady size.
		for cap(w.out) < outBufSize {
			fillBlock()
		}
		blocks := len(w.ft.blocks)
		if perRow := testing.AllocsPerRun(100, appendNext); perRow != 0 {
			t.Errorf("%s: Append allocates %.2f objects per row within a block, want 0", enc.name, perRow)
		}
		if len(w.ft.blocks) != blocks {
			t.Fatalf("%s: a row measured as fitting its block completed one", enc.name)
		}
		fillBlock()
		if perBlock := testing.AllocsPerRun(10, fillBlock); perBlock > 2 {
			t.Errorf("%s: a full block allocates %.2f objects, want at most 2", enc.name, perBlock)
		}
		if i > rowsHint {
			t.Fatalf("%s: wrote %d rows past the %d-row hint; the hash buffer grew while measured", enc.name, i, rowsHint)
		}
		if err := w.Abort(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWriterOrderCheckWithReusedRowBuffer appends rows whose string key
// lives in one caller buffer that is scribbled over after every Append.
// The order check, the block index's last keys, the Bloom filter and
// SeekRange must all see each row as it was appended.
func TestWriterOrderCheckWithReusedRowBuffer(t *testing.T) {
	sc := schema.MustNew([]schema.Column{
		{Name: "name", Type: ltval.String},
		{Name: "ts", Type: ltval.Timestamp},
		{Name: "v", Type: ltval.Int64},
	}, []string{"name", "ts"})
	path := filepath.Join(t.TempDir(), "t.tab")
	w, err := Create(path, sc, WriterOptions{BlockSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 16)
	r := make(schema.Row, 3)
	appendReused := func(name string, ts, v int64) error {
		buf = append(buf[:0], name...)
		r[0], r[1], r[2] = ltval.Value{Type: ltval.String, Bytes: buf}, ltval.NewTimestamp(ts), ltval.NewInt64(v)
		err := w.Append(r)
		for j := range buf {
			buf[j] = 0xff
		}
		return err
	}
	var want []schema.Row
	for i := int64(0); i < 300; i++ {
		name := fmt.Sprintf("dev-%03d", i/10)
		if err := appendReused(name, i%10, i); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		want = append(want, schema.Row{ltval.NewString(name), ltval.NewTimestamp(i % 10), ltval.NewInt64(i)})
	}
	for _, k := range []struct {
		name string
		ts   int64
	}{{"dev-029", 9}, {"dev-029", 8}, {"dev-028", 9}} {
		if err := appendReused(k.name, k.ts, -1); !errors.Is(err, ErrOutOfOrder) {
			t.Errorf("Append(%s, %d) after (dev-029, 9) = %v, want ErrOutOfOrder", k.name, k.ts, err)
		}
	}
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	tab, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	if tab.BlockCount() < 3 {
		t.Fatalf("%d blocks; the test needs several", tab.BlockCount())
	}
	end := 0
	for i, bm := range tab.ft.blocks {
		end += int(bm.rowCount)
		if k := sc.AppendKey(nil, want[end-1]); !bytes.Equal(bm.lastKey, k) {
			t.Errorf("block %d: index last key %x, want %x", i, bm.lastKey, k)
		}
	}
	if end != len(want) {
		t.Fatalf("blocks hold %d rows, want %d", end, len(want))
	}
	for _, r := range want {
		if !tab.MayContainKey(sc.AppendKey(nil, r)) {
			t.Errorf("Bloom filter misses %v", sc.KeyOf(r))
		}
		k := sc.KeyOf(r)
		c, err := tab.SeekRange(k, k, true, ReadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !c.Next() || sc.CompareKeys(c.Row(), r) != 0 || c.Row()[2].Int != r[2].Int {
			t.Errorf("SeekRange(%v) did not find its row: %v", k, c.Err())
		}
		c.Close()
	}
}
