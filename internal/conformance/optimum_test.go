package conformance

import (
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/offline"
)

// randomTinyInstance samples a brute-forceable P1 instance (at most 3
// jobs, 6 devices, 4 rounds) with heterogeneous throughputs. All
// arrivals are static, as the exhaustive search requires.
func randomTinyInstance(rng *rand.Rand) offline.Instance {
	fleets := [][]gpu.Fleet{
		{{gpu.V100: 2}, {gpu.K80: 1}},
		{{gpu.V100: 2, gpu.K80: 1}, {gpu.K80: 2}},
		{{gpu.V100: 1}, {gpu.P100: 2}, {gpu.K80: 2}},
		{{gpu.V100: 3}, {gpu.K80: 3}},
	}
	c := cluster.New(fleets[rng.Intn(len(fleets))]...)
	numJobs := 2 + rng.Intn(2)
	jobs := make([]*job.Job, numJobs)
	for i := range jobs {
		workers := 1 + rng.Intn(2)
		// Iteration counts sized so jobs can finish within the horizon
		// but rarely all of them can: the optimum must actually choose.
		iters := 200 + rng.Intn(1800)
		v := 4 + rng.Float64()*8
		p := 2 + rng.Float64()*5
		k := 1 + rng.Float64()*3
		jobs[i] = &job.Job{
			ID: i, Model: "rand-tiny", Workers: workers,
			Epochs: iters, ItersPerEpoch: 1,
			Throughput: job.Rates{gpu.V100: v, gpu.P100: p, gpu.K80: k},
		}
	}
	return offline.Instance{
		Cluster:     c,
		Jobs:        jobs,
		Rounds:      2 + rng.Intn(3),
		RoundLength: 100,
		Utility:     core.EffectiveThroughput{},
	}
}

// TestHadarWithinTwoAlphaOfOptimum validates Theorem 2 on a family of
// randomly generated (seeded) tiny instances: the online utility must
// stay within the proven 2*alpha factor of the brute-force offline
// optimum, and must never exceed the optimum itself. This generalizes
// the hand-written instances in internal/offline to a broader sample
// of shapes.
func TestHadarWithinTwoAlphaOfOptimum(t *testing.T) {
	core.PanicOnInconsistency = true
	rng := rand.New(rand.NewSource(2024))
	const instances = 12
	for i := 0; i < instances; i++ {
		in := randomTinyInstance(rng)
		opt, err := offline.Optimal(in)
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		opts := core.DefaultOptions()
		opts.Utility = in.Utility
		online, alpha, err := offline.Replay(in, core.New(opts))
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		if online > opt.BestUtility+1e-6 {
			t.Errorf("instance %d: online utility %v exceeds offline optimum %v",
				i, online, opt.BestUtility)
		}
		bound := opt.BestUtility / (2 * alpha)
		if online < bound-1e-9 {
			t.Errorf("instance %d: online %.4f below competitive bound %.4f (OPT %.4f, alpha %.3f)",
				i, online, bound, opt.BestUtility, alpha)
		}
	}
}
