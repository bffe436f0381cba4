// Command ltlint runs LittleTable's project-specific static analyzers
// over the whole module and exits non-zero on any finding. It is the
// compile-time half of the paper's correctness argument: §5's durability
// and recovery guarantees are re-proven on every commit by the crash
// harness, but only for code paths the harness can see — ltlint pins the
// disciplines (vfs-only I/O, checked barriers, threaded contexts, lock
// hygiene, counter lockstep, retry safety, wire exhaustiveness, lock
// ordering, atomic persistence, goroutine tracking) that keep every
// path visible.
//
// Usage:
//
//	go run ./cmd/ltlint ./...
//
// The package pattern argument is accepted for familiarity but the tool
// always analyzes the enclosing module in full — the rules it enforces
// are whole-program properties. Flags:
//
//	-list                 print the analyzers and exit
//	-rules a,b            run only the named analyzers
//	-json                 emit findings as a JSON array on stdout
//	-sarif FILE           also write findings as SARIF 2.1.0 to FILE
//	-check-stale-ignores  also fail on //ltlint:ignore directives that
//	                      suppress nothing (full-suite runs only)
//
// Suppress a finding inline with
//
//	//ltlint:ignore <rule> <reason>
//
// on the offending line or the line above. The reason is mandatory.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"littletable/internal/ltlint"
)

func main() {
	list := flag.Bool("list", false, "print the analyzers and exit")
	rules := flag.String("rules", "", "comma-separated subset of analyzers to run (default: all)")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	sarifPath := flag.String("sarif", "", "write findings as SARIF 2.1.0 to this file")
	staleIgnores := flag.Bool("check-stale-ignores", false, "fail on ignore directives that suppress nothing")
	flag.Parse()

	analyzers := ltlint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}
	partial := *rules != ""
	if partial {
		if *staleIgnores {
			// A partial run trivially leaves other rules' directives
			// unconsumed; the audit would be all noise.
			fmt.Fprintln(os.Stderr, "ltlint: -check-stale-ignores requires the full suite (drop -rules)")
			os.Exit(2)
		}
		want := make(map[string]bool)
		for _, r := range strings.Split(*rules, ",") {
			want[strings.TrimSpace(r)] = true
		}
		var sel []*ltlint.Analyzer
		for _, a := range analyzers {
			if want[a.Name] {
				sel = append(sel, a)
				delete(want, a.Name)
			}
		}
		for r := range want {
			fmt.Fprintf(os.Stderr, "ltlint: unknown analyzer %q\n", r)
			os.Exit(2)
		}
		analyzers = sel
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, err := ltlint.FindModuleRoot(cwd)
	if err != nil {
		fatal(err)
	}
	prog, err := ltlint.LoadModule(root)
	if err != nil {
		fatal(err)
	}
	res, err := ltlint.RunAll(prog, analyzers)
	if err != nil {
		fatal(err)
	}
	diags := res.Diags

	// Module-relative paths: stable across machines and clickable from
	// the repo root, where CI runs the tool.
	rel := func(abs string) string {
		if r, err := filepath.Rel(root, abs); err == nil && !strings.HasPrefix(r, "..") {
			return filepath.ToSlash(r)
		}
		return filepath.ToSlash(abs)
	}

	if *sarifPath != "" {
		f, err := os.Create(*sarifPath)
		if err != nil {
			fatal(err)
		}
		if err := ltlint.WriteSARIF(f, analyzers, diags, rel); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}

	if *jsonOut {
		if err := ltlint.WriteJSON(os.Stdout, diags, rel); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range diags {
			d.Pos.Filename = rel(d.Pos.Filename)
			fmt.Println(d)
		}
	}
	failed := len(diags) > 0
	if failed {
		fmt.Fprintf(os.Stderr, "ltlint: %d finding(s)\n", len(diags))
	}

	if *staleIgnores {
		for _, d := range res.StaleIgnores() {
			fmt.Fprintf(os.Stderr, "ltlint: stale ignore at %s:%d: directive for %s suppresses nothing\n",
				rel(d.Pos.Filename), d.Pos.Line, strings.Join(d.Rules, ","))
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
