package core_test

import (
	"fmt"
	"log"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Example schedules the paper's motivating job on a fragmented cluster:
// three workers, but only two free V100s — Hadar's task-level gang
// straddles V100 and K80 instead of waiting.
func Example() {
	clus := cluster.New(
		gpu.Fleet{gpu.V100: 2},
		gpu.Fleet{gpu.K80: 2},
	)
	j := &job.Job{
		ID: 1, Model: "toy", Workers: 3, Epochs: 80, ItersPerEpoch: 3600,
		Throughput: job.Rates{gpu.V100: 13.34, gpu.K80: 10},
	}
	state := &sched.JobState{Job: j, Remaining: j.TotalIters()}
	scheduler := core.New(core.DefaultOptions())
	decisions := scheduler.Schedule(&sched.Context{
		Now: 0, RoundLength: 360, Horizon: 1e6,
		Free: cluster.NewState(clus), Jobs: []*sched.JobState{state},
	})
	fmt.Println(decisions[1])
	// Output: [n0:V100x2 n1:K80x1]
}

// ExampleUtility expresses other scheduling objectives through the
// utility function U_j(.) (Section III.A, "Expressing other scheduling
// policies"): the same workload under average JCT, makespan and
// finish-time fairness, and how the metrics shift.
func ExampleUtility() {
	clus := experiments.SimCluster()
	cfg := trace.DefaultConfig()
	cfg.NumJobs = 48
	cfg.Seed = 9
	jobs, err := trace.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}

	objectives := []struct {
		label   string
		utility core.Utility
	}{
		{"min average JCT", core.InverseJCT{}},
		{"min makespan", core.EffectiveThroughput{}},
		{"finish-time fairness", core.FinishTimeFairness{
			Jobs: len(jobs), TotalGPUs: clus.TotalGPUs()}},
	}

	fmt.Printf("%-22s %10s %12s %8s %8s\n",
		"objective", "avgJCT(h)", "makespan(h)", "avgFTF", "maxFTF")
	for _, obj := range objectives {
		opts := core.DefaultOptions()
		opts.Utility = obj.utility
		report, err := sim.Run(clus, jobs, core.New(opts), sim.DefaultOptions())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s %10.2f %12.2f %8.2f %8.2f\n",
			obj.label, report.AvgJCT()/3600, report.Makespan/3600,
			report.AvgFTF(), report.MaxFTF())
	}
	fmt.Println("\nEach objective optimizes its own metric: the avg-JCT utility gives")
	fmt.Println("the lowest average completion time, the throughput utility the")
	fmt.Println("shortest makespan — same scheduler, different U_j(.).")
	// Output:
	// objective               avgJCT(h)  makespan(h)   avgFTF   maxFTF
	// min average JCT             30.22       119.22     0.86     1.29
	// min makespan                30.97        98.15     1.69    13.14
	// finish-time fairness        31.73        97.81     5.04    53.47
	//
	// Each objective optimizes its own metric: the avg-JCT utility gives
	// the lowest average completion time, the throughput utility the
	// shortest makespan — same scheduler, different U_j(.).
}
