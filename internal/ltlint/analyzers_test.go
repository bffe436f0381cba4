package ltlint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"littletable/internal/ltlint"
	"littletable/internal/ltlint/lttest"
)

func writeFixture(t *testing.T, root, rel, content string) {
	t.Helper()
	path := filepath.Join(root, filepath.FromSlash(rel))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestVfsOnly(t *testing.T) {
	lttest.Run(t, filepath.Join("testdata", "src", "vfsonly"), ltlint.VfsOnly)
}

func TestBarrierCheck(t *testing.T) {
	lttest.Run(t, filepath.Join("testdata", "src", "barriercheck"), ltlint.BarrierCheck)
}

func TestCtxProp(t *testing.T) {
	lttest.Run(t, filepath.Join("testdata", "src", "ctxprop"), ltlint.CtxProp)
}

func TestLockHold(t *testing.T) {
	lttest.Run(t, filepath.Join("testdata", "src", "lockhold"), ltlint.LockHold)
}

func TestRetrySafe(t *testing.T) {
	lttest.Run(t, filepath.Join("testdata", "src", "retrysafe"), ltlint.RetrySafe)
}

func TestLockOrder(t *testing.T) {
	lttest.Run(t, filepath.Join("testdata", "src", "lockorder"), ltlint.LockOrder)
}

func TestAtomicPersist(t *testing.T) {
	lttest.Run(t, filepath.Join("testdata", "src", "atomicpersist"), ltlint.AtomicPersist)
}

func TestGoTrack(t *testing.T) {
	lttest.Run(t, filepath.Join("testdata", "src", "gotrack"), ltlint.GoTrack)
}

// TestAllSuite pins the suite size and name uniqueness: rule names are
// the suppression vocabulary, so a collision would make //ltlint:ignore
// ambiguous.
func TestAllSuite(t *testing.T) {
	all := ltlint.All()
	if len(all) != 8 {
		t.Fatalf("All() returned %d analyzers, want 8", len(all))
	}
	seen := make(map[string]bool)
	for _, a := range all {
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
}

// TestMalformedIgnoreIsReported pins the rule that a suppression without
// a reason is itself a finding.
func TestMalformedIgnoreIsReported(t *testing.T) {
	dir := t.TempDir()
	writeFixture(t, dir, "a/a.go", "package a\n\n//ltlint:ignore vfsonly\nvar X = 1\n")
	prog, err := ltlint.LoadTree(dir, lttest.ModPath)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := ltlint.Run(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "malformed //ltlint:ignore") {
		t.Fatalf("want one malformed-ignore finding, got %v", diags)
	}
}

// TestSelfClean runs the full suite over this repository: the linted tree
// must stay clean, so the CI gate (cmd/ltlint) cannot regress quietly.
func TestSelfClean(t *testing.T) {
	root, err := ltlint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ltlint.LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := ltlint.Run(prog, ltlint.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
