package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/sched"
	"repro/internal/sim"
)

// MotivationCluster returns the Section II.A toy cluster: 2 V100,
// 3 P100 and 1 K80 GPU, one node per type.
func MotivationCluster() *cluster.Cluster {
	return cluster.New(
		gpu.Fleet{gpu.V100: 2},
		gpu.Fleet{gpu.P100: 3},
		gpu.Fleet{gpu.K80: 1},
	)
}

// MotivationJobs returns the three jobs of the Section II.A example.
// J1 requests 3 GPUs for 80 epochs, J2 2 GPUs for 30 epochs, J3 2 GPUs
// for 50 epochs. The throughput matrix is reconstructed from the text's
// worked numbers (J1's mixed 2xV100+1xK80 allocation achieves 30
// iters/s while Gavel's all-P100 allocation achieves 20; J2 reaches 15
// on two P100s): per-worker rates in iterations/second, with one epoch
// equal to 3600 iterations so runtimes land in hours.
func MotivationJobs() []*job.Job {
	const itersPerEpoch = 3600
	mk := func(id, workers, epochs int, v100, p100, k80 float64) *job.Job {
		return &job.Job{
			ID: id, Name: fmt.Sprintf("J%d", id+1), Model: "toy",
			Workers: workers, Epochs: epochs, ItersPerEpoch: itersPerEpoch,
			Throughput: job.Rates{gpu.V100: v100, gpu.P100: p100, gpu.K80: k80},
		}
	}
	return []*job.Job{
		// J1: heterogeneity-sensitive, K80 unusually competitive (the
		// paper's example needs min over {V100, K80} to beat all-P100).
		mk(0, 3, 80, 13.34, 6.67, 10.0),
		// J2: prefers P100s (2 x 7.5 = 15 iters/s as in the text).
		mk(1, 2, 30, 5.0, 7.5, 7.5),
		// J3: throughput-insensitive filler job.
		mk(2, 2, 50, 5.0, 5.0, 5.0),
	}
}

// MotivationResult compares Hadar and Gavel on the toy example.
type MotivationResult struct {
	Cmp *Comparison
}

// Motivation runs the Section II.A example. The paper reports a 20%
// average-JCT improvement for Hadar from task-level allocation (J1 runs
// on 2 V100 + 1 K80 instead of waiting for or settling on P100s).
func Motivation() (*MotivationResult, error) {
	c := MotivationCluster()
	jobs := MotivationJobs()
	cmp, err := RunComparison(c, jobs,
		[]sched.Scheduler{NewHadar(), NewGavel()}, sim.DefaultOptions())
	if err != nil {
		return nil, err
	}
	return &MotivationResult{Cmp: cmp}, nil
}

// String renders per-job completion times and the average-JCT gain.
func (m *MotivationResult) String() string {
	var sb strings.Builder
	sb.WriteString("Motivation example (Section II.A): 2xV100 + 3xP100 + 1xK80, jobs J1/J2/J3\n")
	fmt.Fprintf(&sb, "%-8s %12s %12s\n", "job", "hadar JCT(h)", "gavel JCT(h)")
	h, g := m.Cmp.Reports["hadar"], m.Cmp.Reports["gavel"]
	for i := range h.Jobs {
		fmt.Fprintf(&sb, "J%-7d %12.2f %12.2f\n", h.Jobs[i].ID+1,
			h.Jobs[i].JCT()/3600, g.Jobs[i].JCT()/3600)
	}
	fmt.Fprintf(&sb, "average  %12.2f %12.2f  (improvement %.0f%%)\n",
		h.AvgJCT()/3600, g.AvgJCT()/3600, m.Gain())
	return sb.String()
}

// Gain is Hadar's average-JCT improvement over Gavel, in percent of
// Gavel's average JCT.
func (m *MotivationResult) Gain() float64 {
	h, g := m.Cmp.Reports["hadar"].AvgJCT(), m.Cmp.Reports["gavel"].AvgJCT()
	return 100 * (g - h) / g
}
