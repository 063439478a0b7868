// Command dashboard runs a scheduling comparison and serves it as a web
// dashboard: summary tables, completion-CDF and occupancy charts
// (inline SVG), per-job listings, and a JSON API.
//
// Usage:
//
//	dashboard [-addr :8080] [-jobs 96] [-seed 1] [-pattern static|poisson|diurnal]
//	          [-fail node:start:end]...
//
// Open http://localhost:8080 after the simulations finish. Each -fail
// injects one machine outage window (seconds); with outages the index
// page gains a fault-tolerance table.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"

	"repro/internal/experiments"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/web"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		n       = flag.Int("jobs", 96, "trace length")
		seed    = flag.Int64("seed", 1, "random seed")
		pattern = flag.String("pattern", "static", "arrival pattern: static, poisson or diurnal")
		rate    = flag.Float64("rate", 2.0/3600, "poisson/diurnal arrival rate (jobs/second)")
	)
	var fails experiments.FailList
	flag.Var(&fails, "fail", "inject a node outage node:start:end in seconds (repeatable)")
	flag.Parse()

	p, err := trace.ParsePattern(*pattern)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dashboard: %v\n", err)
		os.Exit(2)
	}
	cfg := trace.Config{NumJobs: *n, Seed: *seed, Pattern: p, Rate: *rate}
	jobs, err := trace.Generate(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dashboard: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("simulating %d jobs on %s with 4 schedulers...\n",
		len(jobs), experiments.SimCluster())
	opts := sim.DefaultOptions()
	opts.Failures = fails
	cmp, err := experiments.RunComparison(
		experiments.SimCluster(), jobs,
		[]sched.Scheduler{
			experiments.NewHadar(), experiments.NewGavel(),
			experiments.NewTiresias(), experiments.NewYARNCS(),
		},
		opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dashboard: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(cmp.Table())
	fmt.Printf("serving dashboard on %s\n", *addr)
	if err := http.ListenAndServe(*addr, web.NewServer(cmp).Handler()); err != nil {
		fmt.Fprintf(os.Stderr, "dashboard: %v\n", err)
		os.Exit(1)
	}
}
