package tablet

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"littletable/internal/block"
	"littletable/internal/ltval"
	"littletable/internal/schema"
)

// encodingShape is one shape of data the per-column codec chooser faces.
type encodingShape struct {
	name string
	sc   *schema.Schema
	row  func(rng *rand.Rand, i int) schema.Row
}

// encodingShapes builds three datasets, each already in key order:
//
//   - dense-numeric: the §2 usage-accounting shape — regular timestamps,
//     smooth gauges, monotone counters. Delta-of-delta and XOR should
//     crush it.
//   - sparse-string: event-log shape — low-cardinality status strings and
//     repetitive text. Dictionary territory.
//   - mixed: numeric columns next to incompressible random blobs, so the
//     chooser must win on some columns while falling back on others.
func encodingShapes() []encodingShape {
	keyed := func(cols ...schema.Column) *schema.Schema {
		return schema.MustNew(append([]schema.Column{
			{Name: "network", Type: ltval.Int64},
			{Name: "device", Type: ltval.Int64},
			{Name: "ts", Type: ltval.Timestamp},
		}, cols...), []string{"network", "device", "ts"})
	}
	key := func(i int) (ltval.Value, ltval.Value, ltval.Value) {
		return ltval.NewInt64(int64(i / 4096)), ltval.NewInt64(int64(i/64) % 64), ltval.NewTimestamp(int64(i%64) * 60_000_000)
	}
	states := []string{"up", "down", "degraded", "flapping"}
	details := []string{
		"link state change observed on uplink port",
		"dhcp lease renewed",
		"client roamed between access points",
	}
	return []encodingShape{
		{
			name: "dense-numeric",
			sc:   keyed(schema.Column{Name: "gauge", Type: ltval.Double}, schema.Column{Name: "counter", Type: ltval.Int64}),
			row: func(_ *rand.Rand, i int) schema.Row {
				n, d, ts := key(i)
				return schema.Row{n, d, ts, ltval.NewDouble(20 + float64(i%600)/100), ltval.NewInt64(int64(i) * 1500)}
			},
		},
		{
			name: "sparse-string",
			sc:   keyed(schema.Column{Name: "state", Type: ltval.String}, schema.Column{Name: "detail", Type: ltval.String}),
			row: func(rng *rand.Rand, i int) schema.Row {
				n, d, ts := key(i)
				return schema.Row{n, d, ts,
					ltval.NewString(states[rng.Intn(len(states))]),
					ltval.NewString(details[rng.Intn(len(details))])}
			},
		},
		{
			name: "mixed",
			sc:   keyed(schema.Column{Name: "gauge", Type: ltval.Double}, schema.Column{Name: "payload", Type: ltval.Blob}),
			row: func(rng *rand.Rand, i int) schema.Row {
				n, d, ts := key(i)
				payload := make([]byte, 48)
				rng.Read(payload)
				return schema.Row{n, d, ts, ltval.NewDouble(20 + float64(i%600)/100), ltval.NewBlob(payload)}
			},
		},
	}
}

// TestAutoEncodingShapesVsLegacy writes each shape under the legacy
// row-major layout and under auto (per-column codecs), both followed by
// LZF. Both tablets must read back the same rows; auto must never be
// larger on disk, since the chooser keeps whichever image is smaller; and
// dense numeric data must shrink at least 3x.
func TestAutoEncodingShapesVsLegacy(t *testing.T) {
	const rows = 4000
	for _, shape := range encodingShapes() {
		t.Run(shape.name, func(t *testing.T) {
			write := func(mode block.Mode) (*Info, []schema.Row) {
				path := filepath.Join(t.TempDir(), "t.tab")
				w, err := Create(path, shape.sc, WriterOptions{Encoding: mode})
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(1))
				for i := 0; i < rows; i++ {
					if err := w.Append(shape.row(rng, i)); err != nil {
						t.Fatal(err)
					}
				}
				info, err := w.Close()
				if err != nil {
					t.Fatal(err)
				}
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				got, err := scanAll(raw)
				if err != nil {
					t.Fatal(err)
				}
				return info, got
			}
			legacy, legacyRows := write(block.ModeLegacy)
			auto, autoRows := write(block.ModeAuto)
			if len(autoRows) != rows || !sameTabletRows(autoRows, legacyRows) {
				t.Fatalf("auto tablet read back %d rows that differ from legacy's %d", len(autoRows), len(legacyRows))
			}
			if auto.Bytes > legacy.Bytes {
				t.Errorf("auto %d bytes exceeds legacy %d", auto.Bytes, legacy.Bytes)
			}
			ratio := float64(legacy.Bytes) / float64(auto.Bytes)
			if shape.name == "dense-numeric" && ratio < 3 {
				t.Errorf("auto shrinks dense-numeric %.2fx vs legacy, want >= 3x", ratio)
			}
			t.Logf("legacy %.2f B/row, auto %.2f B/row (%.2fx)",
				float64(legacy.Bytes)/rows, float64(auto.Bytes)/rows, ratio)
		})
	}
}
