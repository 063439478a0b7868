package experiments

import (
	"strconv"
	"time"
)

// CSVFile is one CSV file of a result, for re-plotting the paper's
// figures with external tooling: a file name and its records, the first
// being the header. Columns are stable and documented per result.
type CSVFile struct {
	Name string
	Rows [][]string
}

func num(x float64) string { return strconv.FormatFloat(x, 'g', 10, 64) }

// summaryRows is one row per scheduler with the headline metrics:
// scheduler, avg_jct_s, median_jct_s, min_jct_s, max_jct_s, makespan_s,
// utilization, occupancy, avg_ftf, max_ftf, avg_queue_delay_s,
// realloc_fraction.
func (c *Comparison) summaryRows() [][]string {
	rows := [][]string{{
		"scheduler", "avg_jct_s", "median_jct_s", "min_jct_s", "max_jct_s",
		"makespan_s", "utilization", "occupancy", "avg_ftf", "max_ftf",
		"avg_queue_delay_s", "realloc_fraction",
	}}
	for _, name := range c.Order {
		r := c.Reports[name]
		rows = append(rows, []string{
			name, num(r.AvgJCT()), num(r.MedianJCT()), num(r.MinJCT()), num(r.MaxJCT()),
			num(r.Makespan), num(r.Utilization()), num(r.Occupancy()),
			num(r.AvgFTF()), num(r.MaxFTF()), num(r.AvgQueueDelay()),
			num(r.ReallocationFraction()),
		})
	}
	return rows
}

// cdfRows is the Fig. 3 curves: scheduler, finish_time_s,
// fraction_complete — one row per completion event per scheduler.
func (c *Comparison) cdfRows() [][]string {
	rows := [][]string{{"scheduler", "finish_time_s", "fraction_complete"}}
	for _, name := range c.Order {
		for _, p := range c.Reports[name].CompletionCDF() {
			rows = append(rows, []string{name, num(p.X), num(p.Fraction)})
		}
	}
	return rows
}

// CSV returns the completion curves and the summary rows.
func (f *Fig3Result) CSV() []CSVFile {
	return []CSVFile{
		{"fig3_" + f.Arrival + "_cdf.csv", f.Cmp.cdfRows()},
		{"fig3_" + f.Arrival + "_summary.csv", f.Cmp.summaryRows()},
	}
}

// summary is the one file of a result that is one comparison.
func summary(name string, c *Comparison) []CSVFile { return []CSVFile{{name, c.summaryRows()}} }

// CSV returns the comparison's summary rows, as do the four below.
func (f *Fig4Result) CSV() []CSVFile       { return summary("fig4_utilization.csv", f.Cmp) }
func (f *Fig5Result) CSV() []CSVFile       { return summary("fig5_ftf.csv", f.Cmp) }
func (f *Fig6Result) CSV() []CSVFile       { return summary("fig6_makespan.csv", f.Cmp) }
func (f *Fig10Result) CSV() []CSVFile      { return summary("fig10_prototype_utilization.csv", f.Cmp) }
func (m *MotivationResult) CSV() []CSVFile { return summary("motivation.csv", m.Cmp) }

// CSV returns the summary rows of both modes.
func (t *Table3Result) CSV() []CSVFile {
	return []CSVFile{
		{"table3_physical.csv", t.Physical.summaryRows()},
		{"table3_simulated.csv", t.Simulated.summaryRows()},
	}
}

// CSV returns the summary rows of the outage runs and the clean ones.
func (f *FailureScenarioResult) CSV() []CSVFile {
	return []CSVFile{
		{"failures_outage.csv", f.Cmp.summaryRows()},
		{"failures_baseline.csv", f.Baseline.summaryRows()},
	}
}

// CSV returns the scalability sweeps: series, nodes, gpus, jobs,
// hadar_latency_us, gavel_latency_us — one row per point, latencies in
// fractional microseconds. The gavel column is empty for the node-count
// series, which time Hadar only.
func (f *Fig7Result) CSV() []CSVFile {
	rows := [][]string{{"series", "nodes", "gpus", "jobs", "hadar_latency_us", "gavel_latency_us"}}
	us := func(d time.Duration) string { return num(float64(d) / float64(time.Microsecond)) }
	for _, p := range f.Points {
		gavel := ""
		if p.GavelLatency > 0 {
			gavel = us(p.GavelLatency)
		}
		rows = append(rows, []string{
			p.Series, strconv.Itoa(p.Nodes), strconv.Itoa(p.GPUs), strconv.Itoa(p.Jobs),
			us(p.HadarLatency), gavel,
		})
	}
	return []CSVFile{{"fig7_scalability.csv", rows}}
}

// CSV returns the rate sweep: rate_jobs_per_hour, scheduler, min_jct_s,
// avg_jct_s, max_jct_s.
func (f *Fig8Result) CSV() []CSVFile {
	rows := [][]string{{"rate_jobs_per_hour", "scheduler", "min_jct_s", "avg_jct_s", "max_jct_s"}}
	for _, p := range f.Points {
		rows = append(rows, []string{num(p.RatePerHour), p.Scheduler, num(p.MinJCT), num(p.AvgJCT), num(p.MaxJCT)})
	}
	return []CSVFile{{"fig8_rate_sweep.csv", rows}}
}

// CSV returns the round-length sweep: round_minutes,
// rate_jobs_per_hour, avg_jct_s.
func (f *Fig9Result) CSV() []CSVFile {
	rows := [][]string{{"round_minutes", "rate_jobs_per_hour", "avg_jct_s"}}
	for _, p := range f.Points {
		rows = append(rows, []string{num(p.RoundMinutes), num(p.RatePerHour), num(p.AvgJCT)})
	}
	return []CSVFile{{"fig9_round_length.csv", rows}}
}

// CSV returns the comparison: series, jobs, avg_jct_s, median_jct_s,
// makespan_s, utilization, completed — one row per series (the pooled
// baseline, then one split row per routing policy).
func (r *FedCompareResult) CSV() []CSVFile {
	rows := [][]string{{"series", "jobs", "avg_jct_s", "median_jct_s", "makespan_s", "utilization", "completed"}}
	for _, s := range r.Series {
		rows = append(rows, []string{
			s.Series, strconv.Itoa(r.Jobs),
			num(s.Report.AvgJCT()), num(s.Report.MedianJCT()), num(s.Report.Makespan),
			num(s.Report.Utilization()), strconv.Itoa(len(s.Report.Jobs)),
		})
	}
	return []CSVFile{{"federation_compare.csv", rows}}
}

// CSV returns the claims ledger: id, claim, paper, measured, rule,
// verdict — one row per claim.
func (s *Scorecard) CSV() []CSVFile { return []CSVFile{{"scorecard.csv", s.Table()}} }
