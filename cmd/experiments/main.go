// Command experiments regenerates the Hadar paper's tables and figures.
//
// Usage:
//
//	experiments -all                # everything, then the scorecard (exit 1 if a rule fails)
//	experiments -fig 3a             # one figure: 3a 3b 4 5 6 7 8 9 10
//	experiments -table 3            # one table: 3 or 4
//	experiments -motivation         # the Section II.A toy example
//	experiments -failures           # node-outage robustness scenario
//	experiments -federation         # pooled GPU types vs one member per type behind each router
//	experiments -jobs 120           # scale the trace down for quick runs
//
// Results print as text tables mirroring the paper's rows/series; -all
// ends with the scorecard of the paper's claims that EXPERIMENTS.md embeds.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/experiments"
	"repro/internal/export"
	"repro/internal/metrics"
	"repro/internal/plot"
)

func main() {
	var (
		all        = flag.Bool("all", false, "run every experiment")
		fig        = flag.String("fig", "", "figure to run: 3a 3b 4 5 6 7 8 9 10")
		table      = flag.String("table", "", "table to run: 3 or 4")
		motivation = flag.Bool("motivation", false, "run the Section II.A example")
		failures   = flag.Bool("failures", false, "run the node-outage robustness scenario")
		fed        = flag.Bool("federation", false, "run the pooled-vs-type-split federation comparison")
		jobs       = flag.Int("jobs", 480, "trace length (480 = paper scale)")
		seed       = flag.Int64("seed", 1, "random seed")
		maxScale   = flag.Int("fig7-max", 2048, "largest job count in the Fig. 7 sweep")
		csvDir     = flag.String("csv", "", "also write results as CSV files into this directory")
		doPlot     = flag.Bool("plot", false, "render ASCII charts of the figures")
		seeds      = flag.Int("seeds", 0, "run the static comparison across N seeds with bootstrap CIs")
	)
	flag.Parse()

	setup := experiments.DefaultSetup()
	setup.NumJobs = *jobs
	setup.Seed = *seed

	ran := false
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	show := func(v fmt.Stringer, err error) fmt.Stringer {
		if err != nil {
			fail(err)
		}
		fmt.Println(v)
		if *doPlot {
			fmt.Println(renderPlot(v))
		}
		if *csvDir != "" {
			if err := writeCSV(*csvDir, v); err != nil {
				fail(err)
			}
		}
		ran = true
		return v
	}

	var figs experiments.Figures
	if *motivation || *all {
		figs.Motivation = show(experiments.Motivation()).(*experiments.MotivationResult)
	}
	if *failures || *all {
		show(experiments.FailureScenario(setup))
	}
	// Fig. 3b's Hadar run is the federation comparison's pooled series,
	// so when both are asked for it is simulated once.
	var continuous *experiments.Fig3Result
	if *fig == "3b" || *all {
		var err error
		if continuous, err = experiments.Fig3(setup, true); err != nil {
			fail(err)
		}
	}
	if *fed || *all {
		var pooled *metrics.Report
		if continuous != nil {
			pooled = continuous.Cmp.Reports["hadar"]
		}
		figs.Federation = show(experiments.FederationCompare(setup, nil, pooled)).(*experiments.FedCompareResult)
	}
	if *seeds > 0 {
		show(experiments.SweepSeeds(setup, *seeds))
	}
	if *fig == "3a" || *all {
		figs.Static = show(experiments.Fig3(setup, false)).(*experiments.Fig3Result)
	}
	if continuous != nil {
		figs.Continuous = show(continuous, nil).(*experiments.Fig3Result)
	}
	if *fig == "4" || *all {
		figs.Fig4 = show(experiments.Fig4(setup)).(*experiments.Fig4Result)
	}
	if *fig == "5" || *all {
		figs.Fig5 = show(experiments.Fig5(setup)).(*experiments.Fig5Result)
	}
	if *fig == "6" || *all {
		figs.Fig6 = show(experiments.Fig6(setup)).(*experiments.Fig6Result)
	}
	if *fig == "7" || *all {
		figs.Fig7 = show(experiments.Fig7(setup.Seed, *maxScale)).(*experiments.Fig7Result)
	}
	// The 60-GPU cluster sustains ~2 jobs/hour of the Philly-like mix;
	// the sweeps straddle that point so the load actually varies.
	if *fig == "8" || *all {
		show(experiments.Fig8(setup, []float64{1, 1.5, 2, 2.5, 3}))
	}
	if *fig == "9" || *all {
		show(experiments.Fig9(setup, []float64{6, 12, 24, 48}, []float64{1, 2, 3}))
	}
	if *fig == "10" || *all {
		show(experiments.Fig10(setup.Seed))
	}
	if *table == "3" || *all {
		figs.Table3 = show(experiments.Table3(setup.Seed)).(*experiments.Table3Result)
	}
	if *table == "4" || *all {
		fmt.Println(experiments.Table4(setup.RoundLength))
		ran = true
	}
	if *all {
		card, err := experiments.NewScorecard(figs)
		show(card, err)
		if bad := card.Failed(); len(bad) > 0 {
			fail(fmt.Errorf("scorecard: %d rules fail, first %s", len(bad), bad[0].ID))
		}
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

// writeCSV serializes a result into one or more CSV files named after
// its type.
func writeCSV(dir string, v fmt.Stringer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, fn func(f *os.File) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		defer f.Close()
		return fn(f)
	}
	switch r := v.(type) {
	case *experiments.Fig3Result:
		if err := write("fig3_"+r.Arrival+"_cdf.csv", func(f *os.File) error {
			return export.CompletionCDF(f, r.Cmp)
		}); err != nil {
			return err
		}
		return write("fig3_"+r.Arrival+"_summary.csv", func(f *os.File) error {
			return export.Comparison(f, r.Cmp)
		})
	case *experiments.Fig4Result:
		return write("fig4_utilization.csv", func(f *os.File) error {
			return export.Comparison(f, r.Cmp)
		})
	case *experiments.Fig5Result:
		return write("fig5_ftf.csv", func(f *os.File) error {
			return export.Comparison(f, r.Cmp)
		})
	case *experiments.Fig6Result:
		return write("fig6_makespan.csv", func(f *os.File) error {
			return export.Comparison(f, r.Cmp)
		})
	case *experiments.Fig7Result:
		return write("fig7_scalability.csv", func(f *os.File) error {
			return export.Fig7(f, r)
		})
	case *experiments.Fig8Result:
		return write("fig8_rate_sweep.csv", func(f *os.File) error {
			return export.Fig8(f, r)
		})
	case *experiments.Fig9Result:
		return write("fig9_round_length.csv", func(f *os.File) error {
			return export.Fig9(f, r)
		})
	case *experiments.Fig10Result:
		return write("fig10_prototype_utilization.csv", func(f *os.File) error {
			return export.Comparison(f, r.Cmp)
		})
	case *experiments.Table3Result:
		if err := write("table3_physical.csv", func(f *os.File) error {
			return export.Comparison(f, r.Physical)
		}); err != nil {
			return err
		}
		return write("table3_simulated.csv", func(f *os.File) error {
			return export.Comparison(f, r.Simulated)
		})
	case *experiments.MotivationResult:
		return write("motivation.csv", func(f *os.File) error {
			return export.Comparison(f, r.Cmp)
		})
	case *experiments.FedCompareResult:
		return write("federation_compare.csv", func(f *os.File) error {
			return export.FedCompare(f, r)
		})
	case *experiments.Scorecard:
		return write("scorecard.csv", func(f *os.File) error {
			return export.Scorecard(f, r)
		})
	case *experiments.FailureScenarioResult:
		if err := write("failures_outage.csv", func(f *os.File) error {
			return export.Comparison(f, r.Cmp)
		}); err != nil {
			return err
		}
		return write("failures_baseline.csv", func(f *os.File) error {
			return export.Comparison(f, r.Baseline)
		})
	}
	return fmt.Errorf("no CSV writer for %T", v)
}

// renderPlot draws an ASCII chart for results that have a natural
// graphical form; other results return an empty string.
func renderPlot(v fmt.Stringer) string {
	switch r := v.(type) {
	case *experiments.Fig3Result:
		chart := &plot.LineChart{
			Title: "Fig. 3 (" + r.Arrival + "): completion CDF", Width: 72, Height: 18,
			XLabel: "hours", YLabel: "fraction complete",
		}
		for _, name := range r.Cmp.Order {
			var xs, ys []float64
			for _, p := range r.Cmp.Reports[name].CompletionCDF() {
				xs = append(xs, p.X/3600)
				ys = append(ys, p.Fraction)
			}
			chart.Series = append(chart.Series, plot.Series{Name: name, X: xs, Y: ys})
		}
		return chart.Render()
	case *experiments.Fig4Result:
		return utilizationBars("Fig. 4: GPU utilization", r.Cmp)
	case *experiments.Fig5Result:
		bars := &plot.BarChart{Title: "Fig. 5: average finish-time fairness (lower is better)"}
		for _, name := range r.Cmp.Order {
			bars.Labels = append(bars.Labels, name)
			bars.Values = append(bars.Values, r.Cmp.Reports[name].AvgFTF())
		}
		return bars.Render()
	case *experiments.Fig6Result:
		bars := &plot.BarChart{Title: "Fig. 6: makespan", Unit: "h"}
		for _, name := range r.Cmp.Order {
			bars.Labels = append(bars.Labels, name)
			bars.Values = append(bars.Values, r.Cmp.Reports[name].Makespan/3600)
		}
		return bars.Render()
	case *experiments.Fig7Result:
		chart := &plot.LineChart{
			Title: "Fig. 7: decision latency", Width: 72, Height: 14,
			XLabel: "jobs", YLabel: "ms",
		}
		var xs, hs, gs []float64
		for _, p := range r.Sweep("jobs-sweep") {
			xs = append(xs, float64(p.Jobs))
			hs = append(hs, float64(p.HadarLatency.Microseconds())/1000)
			gs = append(gs, float64(p.GavelLatency.Microseconds())/1000)
		}
		chart.Series = []plot.Series{{Name: "hadar", X: xs, Y: hs}, {Name: "gavel", X: xs, Y: gs}}
		return chart.Render()
	case *experiments.Fig8Result:
		chart := &plot.LineChart{
			Title: "Fig. 8: average JCT vs arrival rate", Width: 72, Height: 14,
			XLabel: "jobs/hour", YLabel: "avg JCT (h)",
		}
		series := map[string]*plot.Series{}
		var order []string
		for _, p := range r.Points {
			s, ok := series[p.Scheduler]
			if !ok {
				s = &plot.Series{Name: p.Scheduler}
				series[p.Scheduler] = s
				order = append(order, p.Scheduler)
			}
			s.X = append(s.X, p.RatePerHour)
			s.Y = append(s.Y, p.AvgJCT/3600)
		}
		for _, name := range order {
			chart.Series = append(chart.Series, *series[name])
		}
		return chart.Render()
	case *experiments.Fig9Result:
		chart := &plot.LineChart{
			Title: "Fig. 9: avg JCT vs round length", Width: 72, Height: 14,
			XLabel: "round (min)", YLabel: "avg JCT (h)",
		}
		series := map[float64]*plot.Series{}
		var order []float64
		for _, p := range r.Points {
			s, ok := series[p.RatePerHour]
			if !ok {
				s = &plot.Series{Name: fmt.Sprintf("%.1f jobs/h", p.RatePerHour)}
				series[p.RatePerHour] = s
				order = append(order, p.RatePerHour)
			}
			s.X = append(s.X, p.RoundMinutes)
			s.Y = append(s.Y, p.AvgJCT/3600)
		}
		for _, rate := range order {
			chart.Series = append(chart.Series, *series[rate])
		}
		return chart.Render()
	case *experiments.Fig10Result:
		return utilizationBars("Fig. 10: prototype GPU utilization", r.Cmp)
	case *experiments.FedCompareResult:
		bars := &plot.BarChart{Title: "Pooled vs type-split federation: average JCT", Unit: "h"}
		for _, s := range r.Series {
			bars.Labels = append(bars.Labels, s.Series)
			bars.Values = append(bars.Values, s.Report.AvgJCT()/3600)
		}
		return bars.Render()
	}
	return ""
}

func utilizationBars(title string, cmp *experiments.Comparison) string {
	bars := &plot.BarChart{Title: title, Unit: "%"}
	for _, name := range cmp.Order {
		bars.Labels = append(bars.Labels, name)
		bars.Values = append(bars.Values, 100*cmp.Reports[name].Utilization())
	}
	return bars.Render()
}
