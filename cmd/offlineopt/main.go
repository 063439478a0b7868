// Command offlineopt demonstrates the Theorem 2 machinery on a tiny
// instance: it brute-forces the offline-optimal schedule of Problem P1,
// replays Hadar online on the same instance, and reports the achieved
// fraction of the optimum against the proven 2*alpha bound.
//
// Usage:
//
//	offlineopt [-rounds 4] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/offline"
	"repro/internal/stats"
)

func main() {
	var (
		rounds = flag.Int("rounds", 4, "scheduling rounds in the horizon (<= 6)")
		seed   = flag.Int64("seed", 1, "instance seed")
	)
	flag.Parse()

	rng := stats.NewRand(*seed)
	mk := func(id, workers int, iters float64) *job.Job {
		return &job.Job{
			ID: id, Model: "tiny", Workers: workers,
			Epochs: int(iters), ItersPerEpoch: 1,
			Throughput: job.Rates{
				gpu.V100: 8 + rng.Uniform(0, 4),
				gpu.K80:  1 + rng.Uniform(0, 3),
			},
		}
	}
	in := offline.Instance{
		Cluster: cluster.New(gpu.Fleet{gpu.V100: 2}, gpu.Fleet{gpu.K80: 2}),
		Jobs: []*job.Job{
			mk(0, 2, 1200+rng.Uniform(0, 800)),
			mk(1, 1, 300+rng.Uniform(0, 400)),
			mk(2, 1, 500+rng.Uniform(0, 500)),
		},
		Rounds:      *rounds,
		RoundLength: 100,
		Utility:     core.EffectiveThroughput{},
	}
	fmt.Printf("instance: %s, %d jobs, %d rounds of %.0fs\n",
		in.Cluster, len(in.Jobs), in.Rounds, in.RoundLength)
	for _, j := range in.Jobs {
		fmt.Printf("  %v\n", j)
	}

	opt, err := offline.Optimal(in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "offlineopt: %v\n", err)
		os.Exit(1)
	}
	opts := core.DefaultOptions()
	opts.Utility = in.Utility
	online, alpha, err := offline.Replay(in, core.New(opts))
	if err != nil {
		fmt.Fprintf(os.Stderr, "offlineopt: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("\noffline optimum: %.3f utility (explored %d schedules)\n", opt.BestUtility, opt.Explored)
	fmt.Printf("Hadar online:    %.3f utility\n", online)
	if opt.BestUtility > 0 {
		fmt.Printf("achieved:        %.1f%% of OPT\n", 100*online/opt.BestUtility)
	}
	fmt.Printf("alpha:           %.2f  (Theorem 2 guarantees >= %.1f%% of OPT)\n",
		alpha, 100/(2*alpha))
	if len(opt.Schedule) > 0 {
		fmt.Println("\none optimal schedule:")
		for r, allocs := range opt.Schedule {
			fmt.Printf("  round %d:", r)
			for i, a := range allocs {
				fmt.Printf("  J%d=%v", i, a)
			}
			fmt.Println()
		}
	}
}
