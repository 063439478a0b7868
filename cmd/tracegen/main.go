// Command tracegen synthesizes Philly-like DNN training traces per the
// Hadar paper's recipe (Section IV.A) and writes them as JSON.
//
// Usage:
//
//	tracegen [-n 480] [-seed 1] [-pattern static|poisson|diurnal] [-rate 0.02]
//	         [-amplitude 0.6] [-o trace.json]
//
// The rate flag is the arrival rate in jobs/second and is ignored with
// -pattern static; -amplitude is used only with -pattern diurnal.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/trace"
)

func main() {
	var (
		n       = flag.Int("n", 480, "number of jobs")
		seed    = flag.Int64("seed", 1, "random seed")
		pattern = flag.String("pattern", "static", "arrival pattern: static, poisson, or diurnal")
		rate    = flag.Float64("rate", 480.0/(7*3600), "poisson/diurnal arrival rate (jobs/second)")
		amp     = flag.Float64("amplitude", 0.6, "diurnal day/night amplitude in [0,1)")
		out     = flag.String("o", "", "output file (default stdout)")
		show    = flag.Bool("stats", false, "print trace statistics to stderr")
	)
	flag.Parse()

	p, err := trace.ParsePattern(*pattern)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(2)
	}
	cfg := trace.Config{NumJobs: *n, Seed: *seed, Pattern: p, Rate: *rate, Amplitude: *amp}
	jobs, err := trace.Generate(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(1)
	}
	if *show {
		fmt.Fprint(os.Stderr, trace.Analyze(jobs))
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := trace.Write(w, jobs); err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(1)
	}
}
