package tablet

import (
	"errors"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"littletable/internal/ltval"
	"littletable/internal/schema"
)

// The nan_*.tab fixtures key rows by (x double, ts) and were written by
// this package's writer at commit 7b4b540, when Compare called NaN equal
// to every number: rows (1, ts 1), (NaN, ts 2), (0.5, ts 3) — and, in
// nan_boundary.tab, (NaN, ts 4) — were in order then, told apart by ts.
// Under the total order NaN sorts after every number, so each fixture
// breaks one of the orderings VerifyBlocks checks. Block sizes of 61, 1
// and 33 bytes put the rows in one block, one block each, and two blocks
// of two.
func TestVerifyBlocksChecksKeyOrder(t *testing.T) {
	for _, c := range []struct {
		file   string
		blocks int
		want   string
	}{
		{"testdata/nan_rows.tab", 1, "block 0 row 2 key"},
		{"testdata/nan_footer.tab", 3, "block 2 last key"},
		{"testdata/nan_boundary.tab", 2, "block 1 first key"},
	} {
		tab, err := Open(c.file)
		if err != nil {
			t.Fatal(err)
		}
		if n := tab.BlockCount(); n != c.blocks {
			t.Errorf("%s: %d blocks, want %d", c.file, n, c.blocks)
		}
		err = tab.VerifyBlocks()
		tab.Close()
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: VerifyBlocks = %v, want ErrCorrupt naming %q", c.file, err, c.want)
		}
	}
}

// TestVerifyBlocksPassesOrderedTablets: the golden fixtures, of both
// footer versions, and a fresh many-block tablet of NaN, ±0 and ±Inf keys
// pass the order checks.
func TestVerifyBlocksPassesOrderedTablets(t *testing.T) {
	sc := schema.MustNew([]schema.Column{
		{Name: "x", Type: ltval.Double},
		{Name: "ts", Type: ltval.Timestamp},
	}, []string{"x", "ts"})
	path := filepath.Join(t.TempDir(), "ordered.tab")
	w, err := Create(path, sc, WriterOptions{BlockSize: 40})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{math.Inf(-1), -2, math.Copysign(0, -1), 0, 0.5, 3, math.Inf(1), math.NaN()} {
		for ts := int64(1); ts <= 3; ts++ {
			if err := w.Append(schema.Row{ltval.NewDouble(x), ltval.NewTimestamp(ts)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for _, file := range []string{path, goldenCompressed, goldenPlain, goldenAuto} {
		tab, err := Open(file)
		if err != nil {
			t.Fatal(err)
		}
		if file == path && tab.BlockCount() < 4 {
			t.Errorf("%s: %d blocks, want several", file, tab.BlockCount())
		}
		if err := tab.VerifyBlocks(); err != nil {
			t.Errorf("%s: VerifyBlocks = %v", file, err)
		}
		tab.Close()
	}
}
