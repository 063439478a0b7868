package conformance

import (
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// outcome is a comparable rendering of one job's simulated schedule.
type outcome struct {
	start, finish float64
	reallocs      int
}

func outcomes(t *testing.T, rep *metrics.Report) map[int]outcome {
	t.Helper()
	m := make(map[int]outcome, len(rep.Jobs))
	for _, jr := range rep.Jobs {
		m[jr.ID] = outcome{start: jr.Start, finish: jr.Finish, reallocs: jr.Reallocations}
	}
	return m
}

func sameOutcomes(t *testing.T, name string, a, b map[int]outcome) {
	t.Helper()
	if len(a) != len(b) {
		t.Errorf("%s: %d vs %d completed jobs", name, len(a), len(b))
		return
	}
	for id, oa := range a {
		if ob, ok := b[id]; !ok || oa != ob {
			t.Errorf("%s: job %d schedule differs: %+v vs %+v", name, id, oa, ob)
		}
	}
}

// TestArrivalPermutationInvariance checks the metamorphic relation that
// the order in which same-time arrivals appear in the input slice is
// meaningless: the simulator and every policy must key their decisions
// on (arrival time, job ID), never on input position. The static trace
// makes every pair of jobs a same-time pair, maximizing the surface.
func TestArrivalPermutationInvariance(t *testing.T) {
	core.PanicOnInconsistency = true
	for name, mk := range policies() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			jobs := seededTrace(t, 6, trace.Static, 48)
			base, err := sim.Run(experiments.SimCluster(), jobs, mk(), sim.ValidatedOptions())
			if err != nil {
				t.Fatal(err)
			}
			shuffled := append([]*job.Job(nil), jobs...)
			rand.New(rand.NewSource(99)).Shuffle(len(shuffled), func(i, k int) {
				shuffled[i], shuffled[k] = shuffled[k], shuffled[i]
			})
			perm, err := sim.Run(experiments.SimCluster(), shuffled, mk(), sim.ValidatedOptions())
			if err != nil {
				t.Fatal(err)
			}
			sameOutcomes(t, name, outcomes(t, base), outcomes(t, perm))
		})
	}
}

// relabelJob builds a job whose throughputs are the image of j's under
// the type permutation p.
func relabelJob(j *job.Job, p map[gpu.Type]gpu.Type) *job.Job {
	out := *j
	out.Throughput = job.Rates{}
	for t, v := range j.Throughput {
		if v > 0 {
			out.Throughput[p[gpu.Type(t)]] = v
		}
	}
	return &out
}

// TestTypeRelabelIsomorphism checks that accelerator type identities
// carry no hidden meaning: renaming every type consistently across the
// cluster and all jobs must yield the identical schedule (same starts,
// finishes, reallocation counts per job). The instance uses distinct
// per-type capacities and throughputs so no policy faces a tie it
// could legitimately break by type index.
func TestTypeRelabelIsomorphism(t *testing.T) {
	core.PanicOnInconsistency = true
	// Permutation into entirely different indices, including reversing
	// relative order: V100 (0) -> K520 (4), P100 (1) -> T4 (3),
	// K80 (2) -> V100 (0).
	perm := map[gpu.Type]gpu.Type{gpu.V100: gpu.K520, gpu.P100: gpu.T4, gpu.K80: gpu.V100}

	baseFleets := []gpu.Fleet{
		{gpu.V100: 4}, {gpu.V100: 4},
		{gpu.P100: 3}, {gpu.P100: 3},
		{gpu.K80: 2},
	}
	relabeled := make([]gpu.Fleet, len(baseFleets))
	for i, f := range baseFleets {
		var g gpu.Fleet
		for t, n := range f {
			if n > 0 {
				g[perm[gpu.Type(t)]] = n
			}
		}
		relabeled[i] = g
	}

	mkJobs := func(p map[gpu.Type]gpu.Type) []*job.Job {
		id := map[gpu.Type]gpu.Type{gpu.V100: gpu.V100, gpu.P100: gpu.P100, gpu.K80: gpu.K80}
		if p != nil {
			id = p
		}
		var jobs []*job.Job
		// Distinct throughput triples, no two equal within a job, and
		// distinct iteration totals so value ties cannot arise.
		specs := []struct {
			workers  int
			iters    float64
			v, pp, k float64
			arrival  float64
		}{
			{1, 4000, 10, 7, 3, 0},
			{2, 9000, 12, 8, 2, 0},
			{4, 15000, 9, 6, 4, 360},
			{1, 2500, 11, 5, 1, 360},
			{2, 7000, 13, 9, 5, 720},
			{3, 5200, 8, 4, 2.5, 1080},
		}
		for i, s := range specs {
			jobs = append(jobs, relabelJob(&job.Job{
				ID: i, Model: "relabel", Workers: s.workers, Arrival: s.arrival,
				Epochs: int(s.iters), ItersPerEpoch: 1,
				Throughput: job.Rates{gpu.V100: s.v, gpu.P100: s.pp, gpu.K80: s.k},
			}, id))
		}
		return jobs
	}

	for name, mk := range policies() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			base, err := sim.Run(cluster.New(baseFleets...), mkJobs(nil), mk(), sim.ValidatedOptions())
			if err != nil {
				t.Fatal(err)
			}
			rel, err := sim.Run(cluster.New(relabeled...), mkJobs(perm), mk(), sim.ValidatedOptions())
			if err != nil {
				t.Fatal(err)
			}
			sameOutcomes(t, name, outcomes(t, base), outcomes(t, rel))
		})
	}
}

// TestUtilityScaleInvariance checks that Hadar's decisions depend only
// on relative utilities: multiplying every utility by a constant must
// not change any allocation. The scale is a power of two, so every
// intermediate float (utility, price, payoff = utility - cost) scales
// exactly and the relation holds bit-for-bit, not just approximately.
func TestUtilityScaleInvariance(t *testing.T) {
	core.PanicOnInconsistency = true
	run := func(scale float64) map[int]outcome {
		t.Helper()
		opts := core.DefaultOptions()
		opts.Utility = core.InverseJCT{Scale: scale}
		jobs := seededTrace(t, 7, trace.Static, 48)
		rep, err := sim.Run(experiments.SimCluster(), jobs, core.New(opts), sim.ValidatedOptions())
		if err != nil {
			t.Fatal(err)
		}
		return outcomes(t, rep)
	}
	base := run(3600)
	scaled := run(3600 * 1024) // 2^10: exact in binary floating point
	sameOutcomes(t, "hadar", base, scaled)

	// The relation must also hold for the exponential price function
	// (Eq. 5's literal form), whose prices are again linear in scale.
	runExp := func(scale float64) map[int]outcome {
		t.Helper()
		opts := core.DefaultOptions()
		opts.Utility = core.InverseJCT{Scale: scale}
		opts.ExponentialPrice = true
		jobs := seededTrace(t, 7, trace.Static, 48)
		rep, err := sim.Run(experiments.SimCluster(), jobs, core.New(opts), sim.ValidatedOptions())
		if err != nil {
			t.Fatal(err)
		}
		return outcomes(t, rep)
	}
	sameOutcomes(t, "hadar-exp", runExp(3600), runExp(3600*1024))
}
