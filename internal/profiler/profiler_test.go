package profiler

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

func testJob(id int) *job.Job {
	return &job.Job{
		ID: id, Model: "LSTM", Workers: 2, Epochs: 1000, ItersPerEpoch: 100,
		Throughput: job.Rates{gpu.V100: 10, gpu.P100: 6, gpu.K80: 2},
	}
}

func TestPriorSeeding(t *testing.T) {
	e := New(core.New(core.DefaultOptions()), DefaultOptions())
	j := testJob(0)
	// The best type's rate is the user hint; others start at Prior x best.
	if got := e.Estimate(j, gpu.V100); got != 10 {
		t.Errorf("best-type prior = %v, want 10", got)
	}
	if got := e.Estimate(j, gpu.P100); got != 5 {
		t.Errorf("P100 prior = %v, want 5 (0.5 x best)", got)
	}
	if got := e.Estimate(j, gpu.T4); got != 0 {
		t.Errorf("unusable type estimate = %v, want 0", got)
	}
}

func TestObserveUpdatesBelief(t *testing.T) {
	e := New(core.New(core.DefaultOptions()), DefaultOptions())
	j := testJob(0)
	alloc := cluster.Alloc{{Node: 0, Type: gpu.P100, Count: 2}}
	// 2 workers on P100 at a true 6 it/s each: 12 it/s for 100 s.
	e.Observe(j, 10000, 10000-1200, 100, alloc)
	if got := e.Estimate(j, gpu.P100); math.Abs(got-6) > 1e-9 {
		t.Errorf("P100 estimate after observation = %v, want 6", got)
	}
	if un := e.Unprofiled(j); len(un) != 2 { // V100 and K80 unobserved
		t.Errorf("Unprofiled = %v, want V100+K80", un)
	}
}

func TestObserveAttributesToBottleneck(t *testing.T) {
	e := New(core.New(core.DefaultOptions()), DefaultOptions())
	j := testJob(0)
	mixed := cluster.Alloc{
		{Node: 0, Type: gpu.V100, Count: 1},
		{Node: 1, Type: gpu.K80, Count: 1},
	}
	// Bottleneck K80 at 2 it/s per worker, 2 workers: 4 it/s for 50s.
	e.Observe(j, 1000, 800, 50, mixed)
	if got := e.Estimate(j, gpu.K80); math.Abs(got-2) > 1e-9 {
		t.Errorf("K80 estimate = %v, want 2", got)
	}
	// V100 belief untouched by the mixed observation.
	if got := e.Estimate(j, gpu.V100); got != 10 {
		t.Errorf("V100 estimate = %v, want untouched 10", got)
	}
}

func TestObserveIgnoresDegenerate(t *testing.T) {
	e := New(core.New(core.DefaultOptions()), DefaultOptions())
	j := testJob(0)
	alloc := cluster.Alloc{{Node: 0, Type: gpu.P100, Count: 2}}
	e.Observe(j, 100, 100, 50, alloc) // no progress
	e.Observe(j, 100, 90, 0, alloc)   // zero window
	e.Observe(j, 100, 90, 50, nil)    // no allocation
	if got := e.Estimate(j, gpu.P100); got != 5 {
		t.Errorf("estimate moved on degenerate observations: %v", got)
	}
}

func TestEMABlending(t *testing.T) {
	opts := DefaultOptions()
	opts.EMA = 0.5
	e := New(core.New(core.DefaultOptions()), opts)
	j := testJob(0)
	alloc := cluster.Alloc{{Node: 0, Type: gpu.P100, Count: 2}}
	// Prior 5; observe true 6 -> 5.5 with EMA 0.5.
	e.Observe(j, 10000, 10000-1200, 100, alloc)
	if got := e.Estimate(j, gpu.P100); math.Abs(got-5.5) > 1e-9 {
		t.Errorf("EMA estimate = %v, want 5.5", got)
	}
}

func TestNameSuffix(t *testing.T) {
	e := New(core.New(core.DefaultOptions()), DefaultOptions())
	if e.Name() != "hadar+profiler" {
		t.Errorf("Name = %q", e.Name())
	}
}

// TestEndToEndWithoutOracle runs the estimator-wrapped Hadar on a trace
// through the simulator and checks that it completes everything with a
// JCT within a reasonable factor of oracle Hadar.
func TestEndToEndWithoutOracle(t *testing.T) {
	c := cluster.New(
		gpu.Fleet{gpu.V100: 4}, gpu.Fleet{gpu.P100: 4}, gpu.Fleet{gpu.K80: 4},
	)
	cfg := trace.DefaultConfig()
	cfg.NumJobs = 24
	cfg.WorkerChoices = []int{1, 2}
	cfg.WorkerWeights = []float64{0.6, 0.4}
	jobs, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := sim.Run(c, jobs, core.New(core.DefaultOptions()), sim.ValidatedOptions())
	if err != nil {
		t.Fatal(err)
	}
	est, err := sim.Run(c, jobs, New(core.New(core.DefaultOptions()), DefaultOptions()), sim.ValidatedOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(est.Jobs) != len(jobs) {
		t.Fatalf("estimator run completed %d of %d jobs", len(est.Jobs), len(jobs))
	}
	ratio := est.AvgJCT() / oracle.AvgJCT()
	if ratio > 2.0 {
		t.Errorf("estimator avg JCT %.0fs is %.2fx oracle %.0fs, want <= 2x",
			est.AvgJCT(), ratio, oracle.AvgJCT())
	}
	t.Logf("oracle avgJCT=%.1fh estimator avgJCT=%.1fh (%.2fx)",
		oracle.AvgJCT()/3600, est.AvgJCT()/3600, ratio)
}

// TestExplorationVisitsTypes checks that a job gets steered across
// accelerator types during its first rounds.
func TestExplorationVisitsTypes(t *testing.T) {
	c := cluster.New(
		gpu.Fleet{gpu.V100: 2}, gpu.Fleet{gpu.P100: 2}, gpu.Fleet{gpu.K80: 2},
	)
	j := testJob(0)
	st := &sched.JobState{Job: j, Remaining: j.TotalIters()}
	e := New(core.New(core.DefaultOptions()), DefaultOptions())
	seen := map[gpu.Type]bool{}
	free := cluster.NewState(c)
	for round := 0; round < 6; round++ {
		ctx := &sched.Context{
			Now: float64(round) * 360, Round: round, RoundLength: 360,
			Horizon: 1e7, Free: free,
			Jobs: []*sched.JobState{st},
		}
		out := e.Schedule(ctx)
		alloc := out[0].Canonical()
		if alloc.Workers() == 0 {
			t.Fatalf("round %d: job unscheduled on an empty cluster", round)
		}
		for _, typ := range alloc.Types() {
			seen[typ] = true
		}
		// Simulate the round's progress honestly.
		rate := sched.Rate(j, c, alloc)
		st.Remaining -= rate * 360
		st.Alloc = alloc
		st.Rounds++
	}
	if len(seen) < 3 {
		t.Errorf("exploration visited %d types (%v), want all 3", len(seen), seen)
	}
}
