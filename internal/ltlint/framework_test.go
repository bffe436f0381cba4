package ltlint_test

import (
	"bytes"
	"encoding/json"
	"go/token"
	"strings"
	"testing"

	"littletable/internal/ltlint"
	"littletable/internal/ltlint/lttest"
)

// TestStaleIgnoreTracking pins the stale-ignore audit's contract: a
// directive that suppresses a finding is marked used; one sitting on
// clean code is reported stale.
func TestStaleIgnoreTracking(t *testing.T) {
	dir := t.TempDir()
	writeFixture(t, dir, "littletable/internal/server/a.go", `package server

func used(c chan int) {
	//ltlint:ignore gotrack owner closes c on shutdown
	go func() { <-c }()
}

func clean(c chan int) {
	//ltlint:ignore gotrack this directive suppresses nothing
	_ = c
}
`)
	prog, err := ltlint.LoadTree(dir, lttest.ModPath)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ltlint.RunAll(prog, []*ltlint.Analyzer{ltlint.GoTrack})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Diags) != 0 {
		t.Fatalf("want no findings, got %v", res.Diags)
	}
	stale := res.StaleIgnores()
	if len(stale) != 1 {
		t.Fatalf("want exactly one stale directive, got %d: %+v", len(stale), stale)
	}
	if stale[0].Pos.Line != 9 {
		t.Errorf("stale directive reported at line %d, want 9", stale[0].Pos.Line)
	}
	if len(res.Ignores) != 2 {
		t.Errorf("want 2 directives total, got %d", len(res.Ignores))
	}
}

func testDiags() []ltlint.Diagnostic {
	return []ltlint.Diagnostic{
		{Pos: token.Position{Filename: "/mod/internal/core/a.go", Line: 10, Column: 2}, Rule: "gotrack", Message: "first finding"},
		{Pos: token.Position{Filename: "/mod/internal/router/b.go", Line: 20, Column: 5}, Rule: "lockorder", Message: "second finding"},
	}
}

func testRel(abs string) string { return strings.TrimPrefix(abs, "/mod/") }

func TestWriteJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := ltlint.WriteJSON(&buf, testDiags(), testRel); err != nil {
		t.Fatal(err)
	}
	var out []struct {
		File    string `json:"file"`
		Line    int    `json:"line"`
		Rule    string `json:"rule"`
		Message string `json:"message"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(out) != 2 || out[0].File != "internal/core/a.go" || out[0].Rule != "gotrack" || out[1].Line != 20 {
		t.Fatalf("unexpected JSON output: %+v", out)
	}
}

func TestWriteSARIF(t *testing.T) {
	var buf bytes.Buffer
	if err := ltlint.WriteSARIF(&buf, ltlint.All(), testDiags(), testRel); err != nil {
		t.Fatal(err)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Level     string `json:"level"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("output is not valid SARIF JSON: %v\n%s", err, buf.String())
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("unexpected SARIF shell: version=%q runs=%d", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "ltlint" || len(run.Tool.Driver.Rules) != 8 {
		t.Fatalf("driver: name=%q rules=%d, want ltlint with 8 rules", run.Tool.Driver.Name, len(run.Tool.Driver.Rules))
	}
	if len(run.Results) != 2 || run.Results[0].RuleID != "gotrack" || run.Results[0].Level != "error" {
		t.Fatalf("unexpected results: %+v", run.Results)
	}
	loc := run.Results[1].Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "internal/router/b.go" || loc.Region.StartLine != 20 {
		t.Fatalf("unexpected location: %+v", loc)
	}
}
