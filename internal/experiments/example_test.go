package experiments_test

import (
	"fmt"
	"log"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/gpu"
	"repro/internal/sched"
)

// ExampleMotivation is the paper's Section II.A toy example. Three jobs
// share a cluster of 2 V100, 3 P100 and 1 K80 GPUs. Gavel's job-level
// policy must place each gang on a single accelerator type, so job J1
// (which wants 3 GPUs) settles for P100s; Hadar's task-level policy can
// run J1 on 2 V100 + 1 K80 and finishes everything sooner.
func ExampleMotivation() {
	jobs := experiments.MotivationJobs()
	clus := experiments.MotivationCluster()
	fmt.Printf("cluster: %s\n", clus)
	for _, j := range jobs {
		fmt.Printf("  %s: %d workers, %d epochs, throughput V100=%.2f P100=%.2f K80=%.2f it/s\n",
			j.Name, j.Workers, j.Epochs,
			j.Throughput[gpu.V100], j.Throughput[gpu.P100], j.Throughput[gpu.K80])
	}

	// Peek at the first round: what does each scheduler give J1?
	fmt.Println("\nround-1 allocations:")
	for _, s := range []sched.Scheduler{experiments.NewHadar(), experiments.NewGavel()} {
		states := make([]*sched.JobState, len(jobs))
		for i, j := range jobs {
			states[i] = &sched.JobState{
				Job: j, Remaining: j.TotalIters(),
			}
		}
		ctx := &sched.Context{
			Now: 0, Round: 0, RoundLength: 360, Horizon: 1e6,
			Free: cluster.NewState(clus), Jobs: states,
		}
		decisions := s.Schedule(ctx)
		fmt.Printf("  %-8s", s.Name())
		for _, j := range jobs {
			fmt.Printf("  %s=%v", j.Name, decisions[j.ID])
		}
		fmt.Println()
	}

	// Full simulation: per-job JCTs and the average-JCT improvement.
	result, err := experiments.Motivation()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Println(result)
	// Output:
	// cluster: cluster[3 nodes, {V100:2 P100:3 K80:1}]
	//   J1: 3 workers, 80 epochs, throughput V100=13.34 P100=6.67 K80=10.00 it/s
	//   J2: 2 workers, 30 epochs, throughput V100=5.00 P100=7.50 K80=7.50 it/s
	//   J3: 2 workers, 50 epochs, throughput V100=5.00 P100=5.00 K80=5.00 it/s
	//
	// round-1 allocations:
	//   hadar     J1=[n0:V100x2 n2:K80x1]  J2=[n1:P100x2]  J3=[]
	//   gavel     J1=[n1:P100x3]  J2=[n0:V100x2]  J3=[]
	//
	// Motivation example (Section II.A): 2xV100 + 3xP100 + 1xK80, jobs J1/J2/J3
	// job      hadar JCT(h) gavel JCT(h)
	// J1               2.67         4.51
	// J2               2.00         4.33
	// J3               7.10         7.46
	// average          3.92         5.43  (improvement 28%)
}
