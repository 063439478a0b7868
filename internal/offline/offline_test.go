package offline

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/job"
)

func tinyJob(id, workers int, iters float64, v100, k80 float64) *job.Job {
	return &job.Job{
		ID: id, Model: "tiny", Workers: workers,
		Epochs: int(iters), ItersPerEpoch: 1,
		Throughput: job.Rates{gpu.V100: v100, gpu.K80: k80},
	}
}

func tinyInstance() Instance {
	return Instance{
		Cluster: cluster.New(
			gpu.Fleet{gpu.V100: 2},
			gpu.Fleet{gpu.K80: 1},
		),
		Jobs: []*job.Job{
			tinyJob(0, 2, 2000, 10, 4),
			tinyJob(1, 1, 600, 5, 3),
		},
		Rounds:      3,
		RoundLength: 100,
		Utility:     core.EffectiveThroughput{},
	}
}

func TestOptimalFindsCompletingSchedule(t *testing.T) {
	res, err := Optimal(tinyInstance())
	if err != nil {
		t.Fatal(err)
	}
	if res.BestUtility <= 0 {
		t.Fatalf("optimum utility = %v, want > 0", res.BestUtility)
	}
	if res.Explored == 0 {
		t.Error("nothing explored")
	}
	if len(res.Schedule) != 3 {
		t.Errorf("schedule has %d rounds", len(res.Schedule))
	}
	// The optimal schedule's allocations must be jointly feasible.
	for r, roundAllocs := range res.Schedule {
		free := cluster.NewState(tinyInstance().Cluster)
		for _, a := range roundAllocs {
			if a.Workers() == 0 {
				continue
			}
			if err := free.Allocate(a); err != nil {
				t.Errorf("round %d optimal schedule infeasible: %v", r, err)
			}
		}
	}
}

func TestOptimalSingleJobExact(t *testing.T) {
	// One 2-worker job, 2 V100 at 10 it/s each: 2000 iters need 100s,
	// i.e. exactly one round. Utility = 2000/100 = 20.
	in := Instance{
		Cluster:     cluster.New(gpu.Fleet{gpu.V100: 2}),
		Jobs:        []*job.Job{tinyJob(0, 2, 2000, 10, 0)},
		Rounds:      2,
		RoundLength: 100,
		Utility:     core.EffectiveThroughput{},
	}
	res, err := Optimal(in)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestUtility != 20 {
		t.Errorf("optimal utility = %v, want 20", res.BestUtility)
	}
}

func TestOptimalPrefersFastDevices(t *testing.T) {
	// A 1-worker job with V100 5x K80: the optimum must finish on V100.
	in := Instance{
		Cluster:     cluster.New(gpu.Fleet{gpu.V100: 1, gpu.K80: 1}),
		Jobs:        []*job.Job{tinyJob(0, 1, 900, 10, 2)},
		Rounds:      2,
		RoundLength: 100,
		Utility:     core.EffectiveThroughput{},
	}
	res, err := Optimal(in)
	if err != nil {
		t.Fatal(err)
	}
	// On V100: finishes at 90s -> utility 10. On K80 it cannot finish in
	// 200s at 2 it/s (400 of 900 iters).
	if res.BestUtility != 10 {
		t.Errorf("optimal utility = %v, want 10 (V100 finish)", res.BestUtility)
	}
}

func TestValidateLimits(t *testing.T) {
	in := tinyInstance()
	in.Rounds = 9
	if _, err := Optimal(in); err == nil {
		t.Error("oversized rounds accepted")
	}
	in = tinyInstance()
	in.Jobs = append(in.Jobs, tinyJob(2, 1, 1, 1, 1), tinyJob(3, 1, 1, 1, 1))
	if _, err := Optimal(in); err == nil {
		t.Error("too many jobs accepted")
	}
	in = tinyInstance()
	in.Jobs[0].Arrival = 5
	if _, err := Optimal(in); err == nil {
		t.Error("non-static arrival accepted")
	}
	in = tinyInstance()
	in.Utility = nil
	if _, err := Optimal(in); err == nil {
		t.Error("nil utility accepted")
	}
}

func TestReplayNeverExceedsOptimal(t *testing.T) {
	instances := []Instance{
		tinyInstance(),
		{
			Cluster: cluster.New(gpu.Fleet{gpu.V100: 1}, gpu.Fleet{gpu.K80: 2}),
			Jobs: []*job.Job{
				tinyJob(0, 1, 500, 8, 3),
				tinyJob(1, 2, 800, 6, 2),
				tinyJob(2, 1, 300, 4, 4),
			},
			Rounds:      3,
			RoundLength: 100,
			Utility:     core.EffectiveThroughput{},
		},
	}
	for i, in := range instances {
		opt, err := Optimal(in)
		if err != nil {
			t.Fatal(err)
		}
		opts := core.DefaultOptions()
		opts.Utility = in.Utility
		online, _, err := Replay(in, core.New(opts))
		if err != nil {
			t.Fatal(err)
		}
		if online > opt.BestUtility+1e-6 {
			t.Errorf("instance %d: online utility %v exceeds offline optimum %v",
				i, online, opt.BestUtility)
		}
	}
}

// TestCompetitiveRatioEmpirical validates Theorem 2 on brute-forceable
// instances: Hadar's utility must be at least OPT / (2*alpha).
func TestCompetitiveRatioEmpirical(t *testing.T) {
	instances := []Instance{
		tinyInstance(),
		{
			Cluster: cluster.New(gpu.Fleet{gpu.V100: 2, gpu.K80: 1}),
			Jobs: []*job.Job{
				tinyJob(0, 2, 1500, 9, 3),
				tinyJob(1, 1, 400, 7, 5),
			},
			Rounds:      4,
			RoundLength: 100,
			Utility:     core.EffectiveThroughput{},
		},
		{
			Cluster: cluster.New(gpu.Fleet{gpu.V100: 1}, gpu.Fleet{gpu.K80: 1}),
			Jobs: []*job.Job{
				tinyJob(0, 1, 700, 10, 2),
				tinyJob(1, 1, 700, 10, 2),
			},
			Rounds:      3,
			RoundLength: 100,
			Utility:     core.EffectiveThroughput{},
		},
	}
	for i, in := range instances {
		opt, err := Optimal(in)
		if err != nil {
			t.Fatal(err)
		}
		opts := core.DefaultOptions()
		opts.Utility = in.Utility
		online, alpha, err := Replay(in, core.New(opts))
		if err != nil {
			t.Fatal(err)
		}
		bound := opt.BestUtility / (2 * alpha)
		if online < bound-1e-9 {
			t.Errorf("instance %d: online %.3f below competitive bound %.3f (OPT %.3f, alpha %.2f)",
				i, online, bound, opt.BestUtility, alpha)
		}
		t.Logf("instance %d: OPT=%.2f online=%.2f alpha=%.2f ratio=%.2f",
			i, opt.BestUtility, online, alpha, opt.BestUtility/maxf(online, 1e-9))
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func TestReplayRejectsBadInstance(t *testing.T) {
	in := tinyInstance()
	in.Rounds = 0
	if _, _, err := Replay(in, core.New(core.DefaultOptions())); err == nil {
		t.Error("invalid instance accepted")
	}
}
