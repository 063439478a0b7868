// Command experiments regenerates the Hadar paper's tables and figures.
//
// Usage:
//
//	experiments -all                # everything, then the scorecard (exit 1 if a rule fails)
//	experiments -fig 3a             # one entry: 3a 3b 4 5 6 7 8 9 10 table3 table4 motivation failures federation
//	experiments -jobs 120           # scale the trace down for quick runs
//	experiments -seeds 5            # the static comparison across 5 seeds, with bootstrap CIs
//
// Results print as text tables mirroring the paper's rows/series; -all
// ends with the scorecard of the paper's claims that EXPERIMENTS.md embeds.
package main

import (
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiments"
)

func main() {
	var names []string
	for _, f := range experiments.List {
		names = append(names, f.Name)
	}
	var (
		all      = flag.Bool("all", false, "run every figure and table, then grade the scorecard")
		fig      = flag.String("fig", "", "figure or table to run: "+strings.Join(names, " "))
		jobs     = flag.Int("jobs", 480, "trace length (480 = paper scale)")
		seed     = flag.Int64("seed", 1, "random seed")
		maxScale = flag.Int("fig7-max", 2048, "largest job count in the Fig. 7 sweep")
		csvDir   = flag.String("csv", "", "also write results as CSV files into this directory")
		seeds    = flag.Int("seeds", 0, "run the static comparison across N seeds with bootstrap CIs")
	)
	flag.Parse()

	setup := experiments.DefaultSetup()
	setup.NumJobs = *jobs
	setup.Seed = *seed
	ev := experiments.NewEval(setup, *maxScale)

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	show := func(v fmt.Stringer, err error, writes bool) {
		if err != nil {
			fail(err)
		}
		fmt.Println(v)
		if writes && *csvDir != "" {
			if err := writeCSV(*csvDir, v); err != nil {
				fail(err)
			}
		}
	}

	var run []experiments.Figure
	for _, f := range experiments.List {
		if *all || f.Name == *fig {
			run = append(run, f)
		}
	}
	if len(run) == 0 && *seeds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	for _, f := range run {
		v, err := ev.Result(f.Name)
		show(v, err, len(f.CSV) > 0)
	}
	if *seeds > 0 {
		v, err := experiments.SweepSeeds(setup, *seeds)
		show(v, err, true)
	}
	if *all {
		figs, err := ev.Graded()
		if err != nil {
			fail(err)
		}
		card, err := experiments.NewScorecard(figs)
		show(card, err, true)
		if bad := card.Failed(); len(bad) > 0 {
			fail(fmt.Errorf("scorecard: %d rules fail, first %s", len(bad), bad[0].ID))
		}
	}
}

// writeCSV writes the CSV files of v into dir. It fails, naming the
// type, on a result that has none.
func writeCSV(dir string, v fmt.Stringer) error {
	r, ok := v.(interface{ CSV() []experiments.CSVFile })
	if !ok {
		return fmt.Errorf("no CSV writer for %T", v)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, file := range r.CSV() {
		f, err := os.Create(filepath.Join(dir, file.Name))
		if err != nil {
			return err
		}
		if err := errors.Join(csv.NewWriter(f).WriteAll(file.Rows), f.Close()); err != nil {
			return err
		}
	}
	return nil
}
