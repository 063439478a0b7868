package policy

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

func mkJob(id, workers int, iters, arrival float64) *job.Job {
	return &job.Job{
		ID: id, Model: "m", Workers: workers, Epochs: int(iters), ItersPerEpoch: 1,
		Arrival:    arrival,
		Throughput: job.Rates{gpu.V100: 10, gpu.K80: 2},
	}
}

func newState(j *job.Job) *sched.JobState {
	return &sched.JobState{Job: j, Remaining: j.TotalIters()}
}

func mkCtx(c *cluster.Cluster, states ...*sched.JobState) *sched.Context {
	return &sched.Context{Now: 0, RoundLength: 360, Horizon: 1e7, Free: cluster.NewState(c), Jobs: states}
}

func TestNames(t *testing.T) {
	if New(FIFO).Name() != "ref-fifo-sticky" {
		t.Error(New(FIFO).Name())
	}
	if New(SRTF).Name() != "ref-srtf-sticky" {
		t.Error(New(SRTF).Name())
	}
}

func TestFIFOOrder(t *testing.T) {
	c := cluster.New(gpu.Fleet{gpu.V100: 2})
	early := newState(mkJob(0, 2, 100, 0))
	late := newState(mkJob(1, 2, 100, 10))
	out := New(FIFO).Schedule(mkCtx(c, late, early))
	if out[0].Workers() != 2 {
		t.Errorf("FIFO did not favor earlier job: %v", out)
	}
}

func TestSRTFOrder(t *testing.T) {
	c := cluster.New(gpu.Fleet{gpu.V100: 2})
	long := newState(mkJob(0, 2, 100000, 0))
	short := newState(mkJob(1, 2, 100, 10))
	out := New(SRTF).Schedule(mkCtx(c, long, short))
	if out[1].Workers() != 2 {
		t.Errorf("SRTF did not favor short job: %v", out)
	}
}

func TestStickyKeepsPlacement(t *testing.T) {
	c := cluster.New(gpu.Fleet{gpu.V100: 2}, gpu.Fleet{gpu.V100: 2})
	st := newState(mkJob(0, 2, 1e6, 0))
	st.Alloc = cluster.Alloc{{Node: 1, Type: gpu.V100, Count: 2}}
	out := New(SRTF).Schedule(mkCtx(c, st))
	if !out[0].Equal(st.Alloc) {
		t.Errorf("sticky scheduler moved the job: %v", out[0])
	}
}

func TestCapacityRespected(t *testing.T) {
	c := cluster.New(gpu.Fleet{gpu.V100: 3})
	states := []*sched.JobState{
		newState(mkJob(0, 2, 1000, 0)),
		newState(mkJob(1, 2, 1000, 1)),
	}
	out := New(FIFO).Schedule(mkCtx(c, states...))
	free := cluster.NewState(c)
	for id, a := range out {
		if err := sched.Validate(states[id].Job, a); err != nil {
			t.Fatal(err)
		}
		if a.Workers() > 0 {
			if err := free.Allocate(a); err != nil {
				t.Fatalf("capacity violation: %v", err)
			}
		}
	}
}

// TestHadarBeatsReferencePolicies sandwiches Hadar: on a contended
// heterogeneous workload, Hadar's average JCT should beat plain FIFO
// and be at least competitive with SRTF (which shares its ordering but
// lacks pricing and type economics).
func TestHadarBeatsReferencePolicies(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	c := cluster.New(
		gpu.Fleet{gpu.V100: 4}, gpu.Fleet{gpu.P100: 4}, gpu.Fleet{gpu.K80: 4},
	)
	cfg := trace.DefaultConfig()
	cfg.NumJobs = 32
	cfg.WorkerChoices = []int{1, 2, 4}
	cfg.WorkerWeights = []float64{0.5, 0.3, 0.2}
	jobs, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func(s sched.Scheduler) float64 {
		r, err := sim.Run(c, jobs, s, sim.ValidatedOptions())
		if err != nil {
			t.Fatal(err)
		}
		return r.AvgJCT()
	}
	hadar := run(core.New(core.DefaultOptions()))
	fifo := run(New(FIFO))
	srtf := run(New(SRTF))
	if hadar >= fifo {
		t.Errorf("Hadar avgJCT %.0fs not better than FIFO %.0fs", hadar, fifo)
	}
	// SRTF with sticky placement is a strong avg-JCT heuristic; Hadar
	// should stay within 15% of it (and usually win via type economics).
	if hadar > srtf*1.15 {
		t.Errorf("Hadar avgJCT %.0fs more than 15%% worse than SRTF %.0fs", hadar, srtf)
	}
	t.Logf("avgJCT: hadar=%.1fh srtf=%.1fh fifo=%.1fh", hadar/3600, srtf/3600, fifo/3600)
}
