package server

import (
	"bytes"
	"os"
	"sort"
	"strings"
	"testing"
)

// familyLines returns the sorted "# HELP" and "# TYPE" lines of a
// Prometheus text exposition: every metric's name, help text and kind.
func familyLines(text string) []string {
	var out []string
	for _, l := range strings.Split(text, "\n") {
		if strings.HasPrefix(l, "# ") {
			out = append(out, l)
		}
	}
	sort.Strings(out)
	return out
}

// TestMetricsFamiliesGolden pins /metrics' metric names, HELP and TYPE
// lines to testdata/metrics_families.golden, captured from the exporter's
// hand-written table before the metrics were derived from their
// declarations (PR 15). Renaming or re-kinding a metric breaks dashboards;
// it has to show up as an edit to the golden.
func TestMetricsFamiliesGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/metrics_families.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := familyLines(string(golden))

	s := newServer(t, t.TempDir())
	var empty bytes.Buffer
	s.WriteMetrics(&empty)
	if _, err := s.CreateTable("usage", testSchema(), 0); err != nil {
		t.Fatal(err)
	}
	var one bytes.Buffer
	s.WriteMetrics(&one)

	for name, text := range map[string]string{"no tables": empty.String(), "one table": one.String()} {
		got := familyLines(text)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s: metric families differ from the golden\n got:\n%s\nwant:\n%s",
				name, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
	// Every family has exactly one sample line per table (or one, when
	// it is server-level).
	samples := 0
	for _, l := range strings.Split(one.String(), "\n") {
		if l != "" && !strings.HasPrefix(l, "# ") {
			samples++
		}
	}
	if samples != len(want)/2 {
		t.Errorf("one table: %d sample lines for %d families", samples, len(want)/2)
	}
}
