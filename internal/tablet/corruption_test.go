package tablet

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"littletable/internal/block"
	"littletable/internal/schema"
)

// The corruption battery: sweep single-bit flips and truncations across a
// whole tablet file — records, footer, trailer, everything — and hold the
// reader to its §3 robustness contract: a damaged tablet may fail to open
// or fail mid-scan with ErrCorrupt, but it must never panic and never
// serve rows that differ from what was written. Record CRCs cover block
// and footer payloads, the columnar image carries its own checksum, and
// the trailer magic pins the file's tail, so every flip lands under some
// detector; this test is what keeps that coverage honest as the format
// evolves.

// corruptionSeed writes a small multi-block tablet and returns its bytes
// plus the rows it holds.
func corruptionSeed(t *testing.T) ([]byte, []schema.Row) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "seed.tab")
	w, err := Create(path, testSchema(t), WriterOptions{BlockSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	rows := seqRows(48)
	for _, r := range rows {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw, rows
}

// legacySeed returns the committed pre-columnar (footer version 1) fixture
// and its rows. The writer no longer emits that format, so the reader's
// robustness over it is held on yesterday's bytes.
func legacySeed(t *testing.T) ([]byte, []schema.Row) {
	t.Helper()
	raw, err := os.ReadFile(goldenCompressed)
	if err != nil {
		t.Fatal(err)
	}
	return raw, goldenRows()
}

// corruptionCases are the two tablet layouts the sweeps damage. The v1
// fixture is about ten times the auto seed's size, so the bit-flip sweep
// samples it with a stride coprime to 8: every bit position within a byte
// is still hit.
var corruptionCases = []struct {
	name   string
	seed   func(*testing.T) ([]byte, []schema.Row)
	stride int
}{
	{"auto", corruptionSeed, 1},
	{"legacy", legacySeed, 13},
}

// scanAll opens the image and scans it to the end, returning the rows or
// the first error. Panics propagate and fail the test — that is the point.
func scanAll(raw []byte) ([]schema.Row, error) {
	tab, err := OpenFile(memFile{bytes.NewReader(raw)}, int64(len(raw)))
	if err != nil {
		return nil, err
	}
	defer tab.Close()
	var out []schema.Row
	c := tab.Cursor(true)
	for c.Next() {
		out = append(out, append(schema.Row(nil), c.Row()...))
	}
	if err := c.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func sameTabletRows(got, want []schema.Row) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return false
		}
		for j := range want[i] {
			if !got[i][j].Equal(want[i][j]) {
				return false
			}
		}
	}
	return true
}

func TestTabletBitFlipSweep(t *testing.T) {
	for _, tc := range corruptionCases {
		t.Run(tc.name, func(t *testing.T) {
			raw, want := tc.seed(t)
			step := tc.stride
			if testing.Short() {
				step *= 11
			}
			mut := make([]byte, len(raw))
			for bit := 0; bit < len(raw)*8; bit += step {
				copy(mut, raw)
				mut[bit/8] ^= 1 << (bit % 8)
				got, err := scanAll(mut)
				if err != nil {
					continue // detected: the only other acceptable outcome
				}
				if !sameTabletRows(got, want) {
					t.Fatalf("%s: bit flip %d (byte %d of %d) served wrong rows",
						tc.name, bit, bit/8, len(raw))
				}
			}
		})
	}
}

func TestTabletTruncationSweep(t *testing.T) {
	for _, tc := range corruptionCases {
		t.Run(tc.name, func(t *testing.T) {
			raw, want := tc.seed(t)
			step := 1
			if testing.Short() {
				step = 7
			}
			for n := 0; n < len(raw); n += step {
				got, err := scanAll(raw[:n])
				if err != nil {
					continue
				}
				// A strict prefix that still opens and scans clean must be
				// impossible: the trailer magic lives in the last 16 bytes.
				if !sameTabletRows(got, want) {
					t.Fatalf("%s: truncation to %d of %d served wrong rows", tc.name, n, len(raw))
				}
				t.Fatalf("%s: truncation to %d of %d opened and scanned clean", tc.name, n, len(raw))
			}
		})
	}
}

// TestTabletBitFlipEncByte targets the one byte of new v2 footer surface
// the sweep above can only hit probabilistically once per run: the
// per-block encoding tag. The footer record's CRC must reject a flipped
// tag before the reader ever dispatches on it.
func TestTabletBitFlipEncByte(t *testing.T) {
	raw, _ := corruptionSeed(t)
	tab, err := OpenFile(memFile{bytes.NewReader(raw)}, int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if v := tab.FormatVersion(); v != formatVersion {
		t.Fatalf("seed tablet is footer version %d, want %d", v, formatVersion)
	}
	if len(tab.ft.blocks) < 2 {
		t.Fatalf("seed tablet has %d blocks, want multi-block", len(tab.ft.blocks))
	}
	tab.Close()
	// Decoding any block under the wrong encoding tag must fail loudly:
	// the columnar image's version byte and checksum reject legacy bytes,
	// and legacy parsing rejects columnar images.
	for _, enc := range []block.Encoding{block.EncLegacy, block.EncColumnar} {
		img, gotEnc := func() ([]byte, block.Encoding) {
			w := block.NewWriterMode(testSchema(t), block.ModeAuto)
			for _, r := range seqRows(64) {
				w.Append(r)
			}
			return w.Finish()
		}()
		if gotEnc == enc {
			continue
		}
		if _, err := block.Decode(testSchema(t), enc, img); err == nil {
			t.Fatalf("decoding %v image under tag %v succeeded", gotEnc, enc)
		}
	}
}
