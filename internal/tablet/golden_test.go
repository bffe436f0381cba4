package tablet

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"littletable/internal/ltval"
	"littletable/internal/schema"
)

// The golden fixtures under testdata/ are checked in, never regenerated
// implicitly. The v1 fixtures were written in the pre-columnar (footer
// version 1) format, which no writer emits any more, so they cannot be
// regenerated; v2_auto.tab was written by the columnar writer. They pin
// two compatibility promises:
//
//  1. today's reader parses yesterday's tablets, row for row;
//  2. today's writer still emits yesterday's columnar bytes — every
//     codec's bit layout (XOR, delta, dictionary) included — so an
//     encoder optimisation cannot silently change what lands on disk.
//
// Regenerate v2_auto.tab and the corrupt fixture (only after a deliberate,
// reader-compatible format change) with:
// go test ./internal/tablet -run TestGoldenFixtures -regen-golden
var regenGolden = flag.Bool("regen-golden", false, "rewrite the golden tablet fixtures under testdata/")

const (
	goldenCompressed = "testdata/v1_compressed.tab"
	goldenPlain      = "testdata/v1_plain.tab"
	goldenCorrupt    = "testdata/v1_corrupt.tab"
	goldenAuto       = "testdata/v2_auto.tab"
	goldenRowCount   = 600
)

// goldenSchema exercises every column class the encoder distinguishes:
// integers, a timestamp, a float, and two byte-like columns.
func goldenSchema(t testing.TB) *schema.Schema {
	t.Helper()
	return schema.MustNew([]schema.Column{
		{Name: "network", Type: ltval.Int64},
		{Name: "device", Type: ltval.Int32},
		{Name: "ts", Type: ltval.Timestamp},
		{Name: "gauge", Type: ltval.Double},
		{Name: "state", Type: ltval.String},
		{Name: "payload", Type: ltval.Blob},
	}, []string{"network", "device", "ts"})
}

// goldenRows is the fixture dataset: deterministic, already in key order,
// mixing regular timestamps, a low-cardinality string column, and noisy
// floats/blobs.
func goldenRows() []schema.Row {
	rng := rand.New(rand.NewSource(42))
	states := []string{"up", "down", "flapping"}
	rows := make([]schema.Row, 0, goldenRowCount)
	for i := 0; i < goldenRowCount; i++ {
		rows = append(rows, schema.Row{
			ltval.NewInt64(int64(i / 200)),
			ltval.NewInt32(int32((i / 20) % 10)),
			ltval.NewTimestamp(int64(i%20)*60_000_000 + int64(rng.Intn(1000))),
			ltval.NewDouble(20 + 5*rng.Float64()),
			ltval.NewString(states[i%len(states)]),
			ltval.NewBlob([]byte(fmt.Sprintf("sample-%04d-%x", i, rng.Uint32()))),
		})
	}
	return rows
}

func writeGoldenTablet(t *testing.T, path string, opts WriterOptions) *Info {
	t.Helper()
	w, err := Create(path, goldenSchema(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range goldenRows() {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	info, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	return info
}

// corruptGoldenBytes flips one bit inside the first block's payload —
// past the record header, before the footer — so the damage is exactly
// the kind the per-record CRC exists to catch.
func corruptGoldenBytes(b []byte) []byte {
	out := append([]byte(nil), b...)
	out[recordHeaderSize+20] ^= 0x10
	return out
}

func TestGoldenFixtures(t *testing.T) {
	if *regenGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		writeGoldenTablet(t, goldenAuto, WriterOptions{})
		raw, err := os.ReadFile(goldenCompressed)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenCorrupt, corruptGoldenBytes(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated golden fixtures under testdata/")
	}

	fixtures := []struct {
		path    string
		version uint32
	}{
		{goldenCompressed, formatVersionV1},
		{goldenPlain, formatVersionV1},
		{goldenAuto, formatVersion},
	}
	for _, fx := range fixtures {
		t.Run(filepath.Base(fx.path), func(t *testing.T) {
			tab, err := Open(fx.path)
			if err != nil {
				t.Fatalf("open golden fixture: %v", err)
			}
			defer tab.Close()
			if v := tab.FormatVersion(); v != fx.version {
				t.Fatalf("golden fixture parsed as footer version %d, want %d", v, fx.version)
			}
			want := goldenRows()
			c := tab.Cursor(true)
			i := 0
			for c.Next() {
				if i >= len(want) {
					t.Fatalf("fixture has more than %d rows", len(want))
				}
				got := c.Row()
				for j := range want[i] {
					if !got[j].Equal(want[i][j]) {
						t.Fatalf("row %d col %d: got %v, want %v", i, j, got[j], want[i][j])
					}
				}
				i++
			}
			if err := c.Err(); err != nil {
				t.Fatal(err)
			}
			if i != len(want) {
				t.Fatalf("fixture yielded %d rows, want %d", i, len(want))
			}
		})
	}

	t.Run("auto_writer_byte_identical", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "fresh.tab")
		info := writeGoldenTablet(t, path, WriterOptions{})
		fresh, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		golden, err := os.ReadFile(goldenAuto)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fresh, golden) {
			t.Fatalf("auto-mode writer output drifted from golden fixture %s: %d bytes vs %d",
				goldenAuto, len(fresh), len(golden))
		}
		// The fresh write equals the fixture, so its stats describe the
		// fixture's blocks too.
		if e := info.Enc; e.ColsXOR == 0 || e.ColsDelta == 0 || e.ColsDict == 0 {
			t.Errorf("auto fixture does not use every columnar codec: %d XOR, %d delta, %d dict columns",
				e.ColsXOR, e.ColsDelta, e.ColsDict)
		}
	})
}

// TestGoldenAutoReencodesFixtureRows proves a merge-shaped rewrite: rows
// read from a v1 fixture, re-written by today's writer, come back identical
// through the columnar path.
func TestGoldenAutoReencodesFixtureRows(t *testing.T) {
	tab, err := Open(goldenCompressed)
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	var rows []schema.Row
	c := tab.Cursor(true)
	for c.Next() {
		rows = append(rows, append(schema.Row(nil), c.Row()...))
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "re.tab")
	w, err := Create(path, goldenSchema(t), WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if v := re.FormatVersion(); v != formatVersion {
		t.Fatalf("auto-mode tablet parsed as footer version %d, want %d", v, formatVersion)
	}
	rc := re.Cursor(true)
	i := 0
	for rc.Next() {
		got := rc.Row()
		for j := range rows[i] {
			if !got[j].Equal(rows[i][j]) {
				t.Fatalf("re-encoded row %d col %d: got %v, want %v", i, j, got[j], rows[i][j])
			}
		}
		i++
	}
	if err := rc.Err(); err != nil {
		t.Fatal(err)
	}
	if i != len(rows) {
		t.Fatalf("re-encoded tablet yielded %d rows, want %d", i, len(rows))
	}
}

// TestGoldenCorruptFixtureRejected asserts the damaged fixture is caught
// by verification and by scans — as ErrCorrupt, never as wrong rows.
func TestGoldenCorruptFixtureRejected(t *testing.T) {
	tab, err := Open(goldenCorrupt)
	if err != nil {
		// Equally acceptable: damage detected at open time.
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("open corrupt fixture: got %v, want ErrCorrupt", err)
		}
		return
	}
	defer tab.Close()
	if err := tab.VerifyBlocks(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("VerifyBlocks on corrupt fixture: got %v, want ErrCorrupt", err)
	}
	c := tab.Cursor(true)
	for c.Next() {
	}
	if err := c.Err(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("scan of corrupt fixture: got %v, want ErrCorrupt", err)
	}
}
