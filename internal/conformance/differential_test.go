package conformance

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// policies returns the constructor of every row of experiments.Policies,
// keyed by the name the policy reports. Fresh instances matter:
// schedulers carry per-run state (leases, service counters,
// memoization).
func policies() map[string]func() sched.Scheduler {
	out := make(map[string]func() sched.Scheduler, len(experiments.Policies))
	for _, p := range experiments.Policies {
		out[p.New().Name()] = p.New
	}
	return out
}

// seededTrace generates a deterministic workload for the given seed and
// arrival pattern.
func seededTrace(t *testing.T, seed int64, pattern trace.Pattern, n int) []*job.Job {
	t.Helper()
	cfg := trace.DefaultConfig()
	cfg.NumJobs = n
	cfg.Seed = seed
	cfg.Pattern = pattern
	jobs, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// TestDifferentialMatrix runs every policy over a family of seeded
// traces (static and Poisson arrivals) with the invariant oracle
// enabled. Any capacity, gang, conservation, price or report violation
// in any cell of the matrix fails the run — the policies check each
// other against one shared model rather than their own bookkeeping.
func TestDifferentialMatrix(t *testing.T) {
	core.PanicOnInconsistency = true
	type cell struct {
		seed    int64
		pattern trace.Pattern
	}
	cells := []cell{
		{seed: 1, pattern: trace.Static},
		{seed: 2, pattern: trace.Static},
		{seed: 3, pattern: trace.Poisson},
	}
	for name, mk := range policies() {
		name, mk := name, mk
		for _, cl := range cells {
			cl := cl
			t.Run(fmt.Sprintf("%s/seed%d-%v", name, cl.seed, cl.pattern), func(t *testing.T) {
				t.Parallel()
				jobs := seededTrace(t, cl.seed, cl.pattern, 48)
				rep, err := sim.Run(experiments.SimCluster(), jobs, mk(), sim.ValidatedOptions())
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.Jobs) != len(jobs) {
					t.Errorf("%d of %d jobs completed", len(rep.Jobs), len(jobs))
				}
			})
		}
	}
}

// TestDifferentialMatrixUnderFailures repeats the matrix with machine
// outages injected, exercising the oracle's down-node and killed-round
// paths: schedulers must never place on a node they saw as down, and a
// failure-killed round must conserve zero iterations.
func TestDifferentialMatrixUnderFailures(t *testing.T) {
	core.PanicOnInconsistency = true
	for name, mk := range policies() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			jobs := seededTrace(t, 4, trace.Static, 48)
			opts := sim.ValidatedOptions()
			opts.Failures = []sim.Failure{
				{Node: 0, Start: 0, End: 4000},
				{Node: 3, Start: 2000, End: 9000},
				{Node: 7, Start: 500, End: 1300},
			}
			rep, err := sim.Run(experiments.SimCluster(), jobs, mk(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Faults.NodeDown == 0 {
				t.Error("failure injection did not register any outage")
			}
		})
	}
}

// TestDifferentialMatrixOptionVariants sweeps the simulator's option
// axes — the Table IV checkpoint-cost model, shared-SSD checkpoint
// contention, and round-quantized completions — under the oracle, for
// every policy. The invariants are option-independent: progress must
// follow the bottleneck model whatever the stall model charges.
func TestDifferentialMatrixOptionVariants(t *testing.T) {
	core.PanicOnInconsistency = true
	variants := map[string]func(*sim.Options){
		"model-costs": func(o *sim.Options) { o.UseModelCosts = true },
		"contention":  func(o *sim.Options) { o.CheckpointContention = true },
		"quantized":   func(o *sim.Options) { o.QuantizeCompletions = true },
	}
	for name, mk := range policies() {
		for vname, apply := range variants {
			name, mk, vname, apply := name, mk, vname, apply
			t.Run(name+"/"+vname, func(t *testing.T) {
				t.Parallel()
				jobs := seededTrace(t, 8, trace.Static, 48)
				opts := sim.ValidatedOptions()
				apply(&opts)
				if _, err := sim.Run(experiments.SimCluster(), jobs, mk(), opts); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestDifferentialJCTAgreement is the differential sanity layer on top
// of the shared oracle: on the same trace, every policy must agree on
// the workload's physics even while disagreeing on its order. Each
// job's iteration count in each report must match the trace, and every
// policy's makespan must be at least the work-conserving lower bound
// (total fastest-case GPU-seconds over cluster capacity).
func TestDifferentialJCTAgreement(t *testing.T) {
	jobs := seededTrace(t, 5, trace.Static, 48)
	c := experiments.SimCluster()
	want := make(map[int]float64, len(jobs))
	lower := 0.0
	for _, j := range jobs {
		want[j.ID] = j.TotalIters()
		// GPU-seconds at the job's fastest type: w workers at best*w
		// it/s for TotalIters/(best*w) seconds = TotalIters/best.
		if _, best, ok := j.BestType(); ok && best > 0 {
			lower += j.TotalIters() / best
		}
	}
	lower /= float64(c.TotalGPUs())
	reports := map[string]*metrics.Report{}
	for name, mk := range policies() {
		rep, err := sim.Run(c, jobs, mk(), sim.ValidatedOptions())
		if err != nil {
			t.Fatal(err)
		}
		reports[name] = rep
		for _, jr := range rep.Jobs {
			if jr.TotalIters != want[jr.ID] {
				t.Errorf("%s: job %d reports %v iterations, trace says %v",
					name, jr.ID, jr.TotalIters, want[jr.ID])
			}
		}
		if rep.Makespan < lower {
			t.Errorf("%s: makespan %v below work-conserving floor %v", name, rep.Makespan, lower)
		}
	}
}
