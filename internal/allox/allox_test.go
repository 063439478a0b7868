package allox

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

func mkJob(id, workers int, iters, v100, k80 float64) *job.Job {
	return &job.Job{
		ID: id, Model: "m", Workers: workers, Epochs: int(iters), ItersPerEpoch: 1,
		Throughput: job.Rates{gpu.V100: v100, gpu.K80: k80},
	}
}

func newState(j *job.Job) *sched.JobState {
	return &sched.JobState{Job: j, Remaining: j.TotalIters()}
}

func mkCtx(c *cluster.Cluster, states ...*sched.JobState) *sched.Context {
	return &sched.Context{Now: 0, RoundLength: 360, Horizon: 1e7, Free: cluster.NewState(c), Jobs: states}
}

func TestSingleTypePerJob(t *testing.T) {
	c := cluster.New(gpu.Fleet{gpu.V100: 2}, gpu.Fleet{gpu.K80: 2})
	states := []*sched.JobState{
		newState(mkJob(0, 2, 1000, 10, 2)),
		newState(mkJob(1, 2, 1000, 10, 2)),
	}
	out := New().Schedule(mkCtx(c, states...))
	free := cluster.NewState(c)
	for id, a := range out {
		if len(a.Types()) > 1 {
			t.Errorf("job %d got mixed types %v; AlloX is job-level", id, a)
		}
		if err := sched.Validate(states[id].Job, a); err != nil {
			t.Fatal(err)
		}
		if a.Workers() > 0 {
			if err := free.Allocate(a); err != nil {
				t.Fatalf("capacity violated: %v", err)
			}
		}
	}
	if len(out) != 2 {
		t.Errorf("both jobs should run on separate types: %v", out)
	}
}

func TestShortJobGetsFastType(t *testing.T) {
	// Both want the single V100 pair; the shorter job has the better
	// (1/runtime) value and must win it.
	c := cluster.New(gpu.Fleet{gpu.V100: 2}, gpu.Fleet{gpu.K80: 2})
	long := newState(mkJob(0, 2, 1e6, 10, 2))
	short := newState(mkJob(1, 2, 1e3, 10, 2))
	out := New().Schedule(mkCtx(c, long, short))
	if got := out[1].Types(); len(got) != 1 || got[0] != gpu.V100 {
		t.Errorf("short job on %v, want V100", got)
	}
	if got := out[0].Types(); len(got) != 1 || got[0] != gpu.K80 {
		t.Errorf("long job on %v, want K80", got)
	}
}

func TestHeterogeneitySensitiveJobPrioritized(t *testing.T) {
	// Same remaining runtime on K80, but job 0 is 10x faster on V100
	// while job 1 is only 1.5x faster: job 0 should claim the V100s.
	c := cluster.New(gpu.Fleet{gpu.V100: 1, gpu.K80: 1})
	sensitive := newState(mkJob(0, 1, 1000, 10, 1))
	flat := newState(mkJob(1, 1, 1500, 1.5, 1))
	out := New().Schedule(mkCtx(c, sensitive, flat))
	if got := out[0].Types(); len(got) != 1 || got[0] != gpu.V100 {
		t.Errorf("sensitive job on %v, want V100", got)
	}
}

func TestGangBlockedWithoutSingleType(t *testing.T) {
	c := cluster.New(gpu.Fleet{gpu.V100: 2}, gpu.Fleet{gpu.K80: 2})
	st := newState(mkJob(0, 3, 1000, 10, 2))
	out := New().Schedule(mkCtx(c, st))
	if a, ok := out[0]; ok && a.Workers() > 0 {
		t.Errorf("3-worker gang placed without a 3-device type: %v", a)
	}
}

func TestEmptyQueue(t *testing.T) {
	out := New().Schedule(mkCtx(cluster.New(gpu.Fleet{gpu.V100: 1})))
	if len(out) != 0 {
		t.Errorf("non-empty decision: %v", out)
	}
}

// TestEndToEndSandwich: AlloX must complete a trace, beating the
// heterogeneity-unaware Tiresias-style placement on avg JCT is not
// guaranteed round-by-round, but Hadar must beat AlloX (task-level +
// pricing vs job-level matching).
func TestEndToEndSandwich(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	c := cluster.New(
		gpu.Fleet{gpu.V100: 4}, gpu.Fleet{gpu.P100: 4}, gpu.Fleet{gpu.K80: 4},
	)
	cfg := trace.DefaultConfig()
	cfg.NumJobs = 24
	cfg.WorkerChoices = []int{1, 2, 4}
	cfg.WorkerWeights = []float64{0.5, 0.3, 0.2}
	jobs, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ax, err := sim.Run(c, jobs, New(), sim.ValidatedOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(ax.Jobs) != 24 {
		t.Fatalf("AlloX completed %d of 24 jobs", len(ax.Jobs))
	}
	hd, err := sim.Run(c, jobs, core.New(core.DefaultOptions()), sim.ValidatedOptions())
	if err != nil {
		t.Fatal(err)
	}
	if hd.AvgJCT() > ax.AvgJCT()*1.05 {
		t.Errorf("Hadar avgJCT %.0fs worse than AlloX %.0fs", hd.AvgJCT(), ax.AvgJCT())
	}
	t.Logf("avgJCT: hadar=%.1fh allox=%.1fh", hd.AvgJCT()/3600, ax.AvgJCT()/3600)
}
