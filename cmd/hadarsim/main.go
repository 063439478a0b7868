// Command hadarsim runs one scheduler on one trace through the
// round-based cluster simulator and prints the resulting metrics.
//
// Usage:
//
//	hadarsim [-scheduler hadar] [-cluster sim|physical] [-jobs 480]
//	         [-seed 1] [-pattern static|poisson|diurnal] [-rate 0.02]
//	         [-round 6] [-model-costs] [-trace trace.json] [-cdf]
//	         [-fail node:start:end]...
//	         [-cpuprofile cpu.out] [-memprofile mem.out] [-exectrace trace.out]
//
// -scheduler takes any name in experiments.Policies (`hadarsim -h`
// lists them). With -trace, jobs are loaded from a tracegen JSON file
// instead of being synthesized. Each -fail injects one machine outage
// window (seconds); the flag repeats for multiple outages.
//
// The profiling flags capture the simulation loop only (setup and
// report printing excluded): -cpuprofile and -memprofile write pprof
// profiles, -exectrace writes a runtime execution trace for
// `go tool trace` (named -exectrace because -trace is the job-trace
// input). `make profile` wires them to a paper-scale run.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"

	"repro/internal/experiments"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// runProfiled brackets fn with whichever profilers were requested: CPU
// profile and execution trace around the run, heap profile (after a
// forced GC, so it shows live retention rather than garbage) once it
// finishes. Empty file names disable the corresponding profiler.
func runProfiled(cpu, mem, trc string, fn func() (*metrics.Report, error)) (*metrics.Report, error) {
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
		defer pprof.StopCPUProfile()
	}
	if trc != "" {
		f, err := os.Create(trc)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := rtrace.Start(f); err != nil {
			return nil, err
		}
		defer rtrace.Stop()
	}
	r, err := fn()
	if err == nil && mem != "" {
		f, ferr := os.Create(mem)
		if ferr != nil {
			return nil, ferr
		}
		defer f.Close()
		runtime.GC()
		if werr := pprof.WriteHeapProfile(f); werr != nil {
			return nil, werr
		}
	}
	return r, err
}

func main() {
	var (
		schedName  = flag.String("scheduler", "hadar", "scheduler: "+experiments.PolicyNames())
		clusterSel = flag.String("cluster", "sim", "cluster config: sim (60 GPUs) or physical (8 GPUs)")
		n          = flag.Int("jobs", 480, "number of synthesized jobs (ignored with -trace)")
		seed       = flag.Int64("seed", 1, "random seed")
		pattern    = flag.String("pattern", "static", "arrival pattern: static, poisson or diurnal")
		rate       = flag.Float64("rate", 480.0/(7*3600), "poisson/diurnal arrival rate (jobs/second)")
		roundMin   = flag.Float64("round", 6, "scheduling round length (minutes)")
		modelCosts = flag.Bool("model-costs", false, "use per-model Table IV checkpoint costs")
		traceFile  = flag.String("trace", "", "load jobs from a tracegen JSON file")
		showCDF    = flag.Bool("cdf", false, "print the completion CDF")
		eventsFile = flag.String("events", "", "write a JSONL simulation event log to this file")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile of the simulation to this file")
		memProf    = flag.String("memprofile", "", "write a post-simulation heap profile to this file")
		execTrace  = flag.String("exectrace", "", "write a runtime execution trace of the simulation to this file")
	)
	var fails experiments.FailList
	flag.Var(&fails, "fail", "inject a node outage node:start:end in seconds (repeatable)")
	flag.Parse()

	pol, err := experiments.LookupPolicy(*schedName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hadarsim: %v\n", err)
		os.Exit(2)
	}
	c, err := experiments.LookupCluster(*clusterSel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hadarsim: %v\n", err)
		os.Exit(2)
	}

	var jobs []*job.Job
	if *traceFile != "" {
		f, ferr := os.Open(*traceFile)
		if ferr != nil {
			fmt.Fprintf(os.Stderr, "hadarsim: %v\n", ferr)
			os.Exit(1)
		}
		jobs, err = trace.Read(f)
		f.Close()
	} else {
		p, perr := trace.ParsePattern(*pattern)
		if perr != nil {
			fmt.Fprintf(os.Stderr, "hadarsim: %v\n", perr)
			os.Exit(2)
		}
		jobs, err = trace.Generate(trace.Config{NumJobs: *n, Seed: *seed, Pattern: p, Rate: *rate})
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hadarsim: %v\n", err)
		os.Exit(1)
	}

	opts := sim.DefaultOptions()
	opts.RoundLength = *roundMin * 60
	opts.UseModelCosts = *modelCosts
	opts.Failures = fails
	if *eventsFile != "" {
		f, ferr := os.Create(*eventsFile)
		if ferr != nil {
			fmt.Fprintf(os.Stderr, "hadarsim: %v\n", ferr)
			os.Exit(1)
		}
		defer f.Close()
		opts.EventLog = f
	}
	s := pol.New()
	report, err := runProfiled(*cpuProf, *memProf, *execTrace, func() (*metrics.Report, error) {
		return sim.Run(c, jobs, s, opts)
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "hadarsim: %v\n", err)
		os.Exit(1)
	}

	fmt.Println(report)
	fmt.Printf("  min/median/max JCT: %.2f / %.2f / %.2f h\n",
		report.MinJCT()/3600, report.MedianJCT()/3600, report.MaxJCT()/3600)
	fmt.Printf("  avg queue delay:    %.2f h\n", report.AvgQueueDelay()/3600)
	fmt.Printf("  GPU utilization:    %.1f%% (occupancy %.1f%%)\n",
		100*report.Utilization(), 100*report.Occupancy())
	fmt.Printf("  realloc fraction:   %.1f%% of allocated job-rounds\n",
		100*report.ReallocationFraction())
	fmt.Printf("  decisions:          %d rounds, avg %s per decision\n",
		report.Decisions, report.AvgDecisionTime())
	if report.Faults.Any() {
		fmt.Printf("  faults:             %s\n", report.Faults)
	}
	if *showCDF {
		fmt.Println("  completion CDF:")
		for _, p := range report.CompletionCDF() {
			fmt.Printf("    %10.2fh %6.3f\n", p.X/3600, p.Fraction)
		}
	}
}
