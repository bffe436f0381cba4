// Command ltbench regenerates every table and figure from the paper's
// evaluation section (§5). Each subcommand runs one experiment and prints
// its series; `ltbench all` runs the full suite. EXPERIMENTS.md records a
// captured run against the paper's numbers.
//
// Usage:
//
//	ltbench headline
//	ltbench fig2 | fig3 | fig4 | fig5 | fig6 | fig7 | fig8 | fig9 | fig10
//	ltbench rates | appendix | ablations
//	ltbench all
//	ltbench -full fig5     # paper-scale parameters (slow)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"littletable/internal/ltbench"
)

func main() {
	full := flag.Bool("full", false, "run at paper-scale parameters (slow)")
	asJSON := flag.Bool("json", false, "emit results as JSON (for plotting pipelines)")
	outPath := flag.String("out", "", "also write results as a JSON array to this file")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	var collected []*ltbench.Result
	run := func(name string) error {
		res, err := dispatch(name, *full)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		collected = append(collected, res)
		if *asJSON {
			return res.FprintJSON(os.Stdout)
		}
		res.Print()
		fmt.Println()
		return nil
	}
	names := args
	if len(args) == 1 && args[0] == "all" {
		names = []string{
			"headline", "fig2", "fig3", "fig4", "fig5", "fig6",
			"fig7", "fig8", "fig9", "fig10", "rates", "appendix", "ablations",
		}
	}
	for _, name := range names {
		if err := run(name); err != nil {
			fmt.Fprintf(os.Stderr, "ltbench: %v\n", err)
			os.Exit(1)
		}
	}
	if *outPath != "" {
		b, err := json.MarshalIndent(collected, "", "  ")
		if err == nil {
			//ltlint:ignore vfsonly the -o results file is operator output on the real filesystem, not engine data
			err = os.WriteFile(*outPath, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "ltbench: write %s: %v\n", *outPath, err)
			os.Exit(1)
		}
	}
}

func dispatch(name string, full bool) (*ltbench.Result, error) {
	switch name {
	case "headline":
		return ltbench.RunHeadline("")
	case "fig2":
		cfg := ltbench.Fig2Config{}
		if full {
			cfg.BytesPerRun = 500 << 20
		}
		return ltbench.RunFig2(cfg)
	case "fig3":
		cfg := ltbench.Fig3Config{}
		if full {
			cfg.TotalBytes = 16 << 30
			cfg.FlushSize = 16 << 20
			cfg.MaxTabletSize = 128 << 20
			cfg.MaxPending = 100
		}
		return ltbench.RunFig3(cfg)
	case "fig4":
		cfg := ltbench.Fig4Config{}
		if full {
			cfg.BytesPerWriter = 500 << 20
		}
		return ltbench.RunFig4(cfg)
	case "fig5":
		cfg := ltbench.Fig5Config{}
		if full {
			cfg.TotalBytes = 2 << 30
		}
		return ltbench.RunFig5(cfg)
	case "fig6":
		cfg := ltbench.Fig6Config{}
		if full {
			cfg.TabletBytes = 16 << 20
		}
		return ltbench.RunFig6(cfg)
	case "fig7":
		return ltbench.RunFig7(0, 1), nil
	case "fig8":
		return ltbench.RunFig8(0, 2), nil
	case "fig9":
		cfg := ltbench.Fig9Config{}
		if full {
			cfg.Tables = 40
			cfg.Samples = 2000
			cfg.Queries = 500
		}
		return ltbench.RunFig9(cfg)
	case "fig10":
		return ltbench.RunFig10(20000, 3), nil
	case "rates":
		cfg := ltbench.RatesConfig{}
		if full {
			cfg.Networks = 16
			cfg.DevicesPerNet = 25
			cfg.SimulatedHours = 24
		}
		return ltbench.RunRates(cfg)
	case "ablations":
		cfg := ltbench.AblationConfig{}
		if full {
			cfg.Days = 90
			cfg.RowsPerDay = 20000
		}
		return ltbench.RunAblations(cfg)
	case "appendix":
		cfg := ltbench.AppendixConfig{}
		if full {
			cfg.Flushes = 512
		}
		return ltbench.RunAppendix(cfg)
	default:
		return nil, fmt.Errorf("unknown experiment %q", name)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `ltbench regenerates the paper's evaluation figures.

usage: ltbench [-full] <experiment>...
experiments: headline fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 rates appendix ablations all`)
}
