package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildLtsql compiles the binary once per test run.
func buildLtsql(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "ltsql")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Env = os.Environ()
	dieWithTest(cmd)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

func run(t *testing.T, bin string, stdin string, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	dieWithTest(cmd)
	if stdin != "" {
		cmd.Stdin = strings.NewReader(stdin)
	}
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func TestLtsqlEmbeddedEndToEnd(t *testing.T) {
	bin := buildLtsql(t)
	root := t.TempDir()
	// Create + insert + query via -q - (stdin statements).
	// Omitted timestamps get the current time (§3.1) — necessary here
	// because the table has a TTL that would expire epoch-era literals.
	script := `
CREATE TABLE usage (network int64, device int64, ts timestamp, rate double,
  PRIMARY KEY (network, device, ts)) TTL 30 d;
INSERT INTO usage (network, device, rate) VALUES (1, 1, 2.5);
INSERT INTO usage (network, device, rate) VALUES (1, 2, 3.5);
SELECT device, rate FROM usage WHERE network = 1;
FLUSH TABLE usage; -- without it, exit would legitimately drop the rows
`
	out, err := run(t, bin, script, "-root", root, "-q", "-")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "2.5") || !strings.Contains(out, "3.5") {
		t.Fatalf("query output missing rows:\n%s", out)
	}
	if !strings.Contains(out, "(2 rows)") {
		t.Fatalf("row count missing:\n%s", out)
	}
	// The data directory persists: a second invocation sees the table.
	out, err = run(t, bin, "", "-root", root, "-q", "SELECT COUNT(*) FROM usage")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "2") {
		t.Fatalf("persisted count wrong:\n%s", out)
	}
}

func TestLtsqlReportsErrors(t *testing.T) {
	bin := buildLtsql(t)
	out, err := run(t, bin, "", "-root", t.TempDir(), "-q", "SELEC nonsense")
	if err == nil {
		t.Fatalf("bad SQL exited zero:\n%s", out)
	}
	if !strings.Contains(out, "error") {
		t.Fatalf("no error message:\n%s", out)
	}
	// No connection target at all.
	if out, err := run(t, bin, "", "-q", "SELECT 1"); err == nil {
		t.Fatalf("missing -addr/-root accepted:\n%s", out)
	}
}
