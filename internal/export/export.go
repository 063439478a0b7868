// Package export serializes experiment results as CSV so the paper's
// figures can be re-plotted with external tooling (gnuplot, matplotlib,
// spreadsheets). One writer per figure/table shape; columns are stable
// and documented per function.
package export

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
)

func writeAll(w io.Writer, rows [][]string) error {
	cw := csv.NewWriter(w)
	for _, r := range rows {
		if err := cw.Write(r); err != nil {
			return fmt.Errorf("export: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("export: %w", err)
	}
	return nil
}

func f(x float64) string { return strconv.FormatFloat(x, 'g', 10, 64) }

// Comparison writes one row per scheduler with the headline metrics:
// scheduler, avg_jct_s, median_jct_s, min_jct_s, max_jct_s, makespan_s,
// utilization, occupancy, avg_ftf, max_ftf, avg_queue_delay_s,
// realloc_fraction.
func Comparison(w io.Writer, cmp *experiments.Comparison) error {
	rows := [][]string{{
		"scheduler", "avg_jct_s", "median_jct_s", "min_jct_s", "max_jct_s",
		"makespan_s", "utilization", "occupancy", "avg_ftf", "max_ftf",
		"avg_queue_delay_s", "realloc_fraction",
	}}
	for _, name := range cmp.Order {
		r := cmp.Reports[name]
		rows = append(rows, []string{
			name, f(r.AvgJCT()), f(r.MedianJCT()), f(r.MinJCT()), f(r.MaxJCT()),
			f(r.Makespan), f(r.Utilization()), f(r.Occupancy()),
			f(r.AvgFTF()), f(r.MaxFTF()), f(r.AvgQueueDelay()),
			f(r.ReallocationFraction()),
		})
	}
	return writeAll(w, rows)
}

// CompletionCDF writes the Fig. 3 curves: scheduler, finish_time_s,
// fraction_complete — one row per completion event per scheduler.
func CompletionCDF(w io.Writer, cmp *experiments.Comparison) error {
	rows := [][]string{{"scheduler", "finish_time_s", "fraction_complete"}}
	for _, name := range cmp.Order {
		for _, p := range cmp.Reports[name].CompletionCDF() {
			rows = append(rows, []string{name, f(p.X), f(p.Fraction)})
		}
	}
	return writeAll(w, rows)
}

// Jobs writes per-job results: scheduler, job_id, model, workers,
// arrival_s, start_s, finish_s, jct_s, queue_delay_s, ftf,
// reallocations.
func Jobs(w io.Writer, name string, r *metrics.Report) error {
	rows := [][]string{{
		"scheduler", "job_id", "model", "workers", "arrival_s", "start_s",
		"finish_s", "jct_s", "queue_delay_s", "ftf", "reallocations",
	}}
	for _, j := range r.Jobs {
		rows = append(rows, []string{
			name, strconv.Itoa(j.ID), j.Model, strconv.Itoa(j.Workers),
			f(j.Arrival), f(j.Start), f(j.Finish), f(j.JCT()),
			f(j.QueueDelay()), f(j.FTF()), strconv.Itoa(j.Reallocations),
		})
	}
	return writeAll(w, rows)
}

// Fig7 writes the scalability sweeps: series, nodes, gpus, jobs,
// hadar_latency_us, gavel_latency_us — one row per point, latencies in
// fractional microseconds. The gavel column is empty for the node-count
// series, which time Hadar only.
func Fig7(w io.Writer, r *experiments.Fig7Result) error {
	rows := [][]string{{"series", "nodes", "gpus", "jobs", "hadar_latency_us", "gavel_latency_us"}}
	us := func(d time.Duration) string { return f(float64(d) / float64(time.Microsecond)) }
	for _, p := range r.Points {
		gavel := ""
		if p.GavelLatency > 0 {
			gavel = us(p.GavelLatency)
		}
		rows = append(rows, []string{
			p.Series, strconv.Itoa(p.Nodes), strconv.Itoa(p.GPUs), strconv.Itoa(p.Jobs),
			us(p.HadarLatency), gavel,
		})
	}
	return writeAll(w, rows)
}

// Fig8 writes the rate sweep: rate_jobs_per_hour, scheduler, min_jct_s,
// avg_jct_s, max_jct_s.
func Fig8(w io.Writer, r *experiments.Fig8Result) error {
	rows := [][]string{{"rate_jobs_per_hour", "scheduler", "min_jct_s", "avg_jct_s", "max_jct_s"}}
	for _, p := range r.Points {
		rows = append(rows, []string{
			f(p.RatePerHour), p.Scheduler, f(p.MinJCT), f(p.AvgJCT), f(p.MaxJCT),
		})
	}
	return writeAll(w, rows)
}

// Fig9 writes the round-length sweep: round_minutes, rate_jobs_per_hour,
// avg_jct_s.
func Fig9(w io.Writer, r *experiments.Fig9Result) error {
	rows := [][]string{{"round_minutes", "rate_jobs_per_hour", "avg_jct_s"}}
	for _, p := range r.Points {
		rows = append(rows, []string{f(p.RoundMinutes), f(p.RatePerHour), f(p.AvgJCT)})
	}
	return writeAll(w, rows)
}

// FedCompare writes the federation-vs-mega-cluster comparison: series,
// members, jobs, avg_jct_s, median_jct_s, makespan_s, utilization,
// completed — one row per series (the mega-cluster baseline, then one
// federation row per routing policy).
func FedCompare(w io.Writer, r *experiments.FedCompareResult) error {
	rows := [][]string{{
		"series", "members", "jobs", "avg_jct_s", "median_jct_s",
		"makespan_s", "utilization", "completed",
	}}
	for _, s := range r.Series {
		rows = append(rows, []string{
			s.Series, strconv.Itoa(s.Members), strconv.Itoa(r.Jobs),
			f(s.Report.AvgJCT()), f(s.Report.MedianJCT()), f(s.Report.Makespan),
			f(s.Report.Utilization()), strconv.Itoa(len(s.Report.Jobs)),
		})
	}
	return writeAll(w, rows)
}

// OccupancySeries writes a scheduler's per-round cluster occupancy:
// round_start_s, held_workers.
func OccupancySeries(w io.Writer, r *metrics.Report) error {
	rows := [][]string{{"round_start_s", "held_workers"}}
	for i, held := range r.RoundHeld {
		start := 0.0
		if i < len(r.RoundStarts) {
			start = r.RoundStarts[i]
		}
		rows = append(rows, []string{f(start), strconv.Itoa(held)})
	}
	return writeAll(w, rows)
}
