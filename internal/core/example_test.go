package core_test

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/sched"
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

// ExampleUtility shows how swapping the utility function re-targets the
// same scheduler at a different objective.
func ExampleUtility() {
	opts := core.DefaultOptions()
	opts.Utility = core.EffectiveThroughput{} // makespan-oriented
	opts.NameSuffix = "-makespan"
	s := core.New(opts)
	fmt.Println(s.Name())
	// Output: hadar-makespan
}
