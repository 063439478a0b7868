package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/sched"
)

func heteroCluster() *cluster.Cluster {
	// 2 V100, 3 P100, 1 K80 — the paper's motivation cluster.
	return cluster.New(
		gpu.Fleet{gpu.V100: 2},
		gpu.Fleet{gpu.P100: 3},
		gpu.Fleet{gpu.K80: 1},
	)
}

func mkJob(id, workers int, iters float64, v100, p100, k80 float64) *job.Job {
	return &job.Job{
		ID: id, Model: "test", Workers: workers,
		Epochs: int(iters), ItersPerEpoch: 1,
		Throughput: job.Rates{gpu.V100: v100, gpu.P100: p100, gpu.K80: k80},
	}
}

func mkCtx(c *cluster.Cluster, states ...*sched.JobState) *sched.Context {
	horizon := 360.0
	for _, st := range states {
		horizon += st.Job.MaxDuration()
	}
	return &sched.Context{
		Now: 0, Round: 0, RoundLength: 360, Horizon: horizon,
		Free: cluster.NewState(c), Jobs: states,
	}
}

func newState(j *job.Job) *sched.JobState {
	return &sched.JobState{Job: j, Remaining: j.TotalIters()}
}

// newPriceTable fills a fresh, one-off price table for ctx, the way
// Schedule refills the scheduler's own.
func newPriceTable(ctx *sched.Context, u Utility, exponential bool) *priceTable {
	pt := &priceTable{}
	pt.fill(ctx, &Options{Utility: u, ExponentialPrice: exponential})
	return pt
}

func validateDecision(t *testing.T, c *cluster.Cluster, states []*sched.JobState, out map[int]cluster.Alloc) {
	t.Helper()
	free := cluster.NewState(c)
	byID := map[int]*sched.JobState{}
	for _, st := range states {
		byID[st.Job.ID] = st
	}
	for id, a := range out {
		st, ok := byID[id]
		if !ok {
			t.Fatalf("allocation for unknown job %d", id)
		}
		if err := sched.Validate(st.Job, a); err != nil {
			t.Fatalf("invalid allocation: %v", err)
		}
		if a.Workers() > 0 {
			if err := free.Allocate(a); err != nil {
				t.Fatalf("joint capacity violation: %v", err)
			}
		}
	}
}

func TestSchedulesSingleJobOnBestType(t *testing.T) {
	c := heteroCluster()
	j := mkJob(0, 2, 10000, 10, 5, 1)
	states := []*sched.JobState{newState(j)}
	s := New(DefaultOptions())
	out := s.Schedule(mkCtx(c, states...))
	validateDecision(t, c, states, out)
	a, ok := out[0]
	if !ok {
		t.Fatal("job not scheduled on an empty cluster")
	}
	types := allocTypes(a)
	if len(types) != 1 || types[0] != gpu.V100 {
		t.Errorf("expected pure V100 allocation, got %v", a)
	}
}

func TestTaskLevelMixingWhenNoSingleTypeFits(t *testing.T) {
	// The paper's headline scenario: a 3-worker job on a cluster with
	// only 2 V100 free and K80/P100 stragglers; Gavel-style job-level
	// allocation would pick 3 P100s, Hadar may also mix. Remove P100s to
	// force mixing.
	c := cluster.New(gpu.Fleet{gpu.V100: 2}, gpu.Fleet{gpu.K80: 2})
	j := mkJob(0, 3, 10000, 10, 5, 4)
	states := []*sched.JobState{newState(j)}
	s := New(DefaultOptions())
	out := s.Schedule(mkCtx(c, states...))
	validateDecision(t, c, states, out)
	a, ok := out[0]
	if !ok {
		t.Fatal("mixable job not scheduled")
	}
	if len(allocTypes(a)) < 2 {
		t.Errorf("expected mixed-type allocation, got %v", a)
	}
}

func TestJobLevelAblationRefusesMixing(t *testing.T) {
	c := cluster.New(gpu.Fleet{gpu.V100: 2}, gpu.Fleet{gpu.K80: 2})
	j := mkJob(0, 3, 10000, 10, 5, 4)
	states := []*sched.JobState{newState(j)}
	opts := DefaultOptions()
	opts.TaskLevel = false
	opts.NameSuffix = "-joblevel"
	s := New(opts)
	out := s.Schedule(mkCtx(c, states...))
	validateDecision(t, c, states, out)
	if a, ok := out[0]; ok && len(allocTypes(a)) > 1 {
		t.Errorf("job-level ablation produced mixed allocation %v", a)
	}
}

func TestGangRespectedUnderContention(t *testing.T) {
	c := heteroCluster() // 6 GPUs total
	jobs := []*sched.JobState{
		newState(mkJob(0, 3, 50000, 10, 5, 2)),
		newState(mkJob(1, 2, 20000, 8, 6, 2)),
		newState(mkJob(2, 2, 30000, 6, 6, 3)),
	}
	s := New(DefaultOptions())
	out := s.Schedule(mkCtx(c, jobs...))
	validateDecision(t, c, jobs, out)
	// 3+2+2 = 7 > 6 GPUs: at most two of the three jobs can run.
	if len(out) > 2 {
		total := 0
		for _, a := range out {
			total += a.Workers()
		}
		if total > 6 {
			t.Errorf("scheduled %d workers on 6 GPUs", total)
		}
	}
}

func TestStickinessKeepsAllocation(t *testing.T) {
	c := heteroCluster()
	j := mkJob(0, 2, 1e6, 10, 5, 1)
	st := newState(j)
	s := New(DefaultOptions())
	ctx := mkCtx(c, st)
	// The result is lent until the next Schedule call, which overwrites
	// it, so it is copied before that call, as the engine does.
	first := s.Schedule(ctx)[0].Clone()
	if first.Workers() == 0 {
		t.Fatal("job not scheduled")
	}
	// Simulate the next round: job holds `first`, nothing else changed.
	st.Alloc = first
	st.Remaining -= 1000
	ctx2 := mkCtx(c, st)
	ctx2.Now = 360
	ctx2.Round = 1
	second := s.Schedule(ctx2)[0]
	if !second.Equal(first) {
		t.Errorf("allocation churned without cause: %v -> %v", first, second)
	}
}

func TestDPAndGreedyAgreeOnCapacityRespect(t *testing.T) {
	c := heteroCluster()
	jobs := []*sched.JobState{
		newState(mkJob(0, 2, 40000, 10, 6, 2)),
		newState(mkJob(1, 2, 30000, 9, 7, 3)),
		newState(mkJob(2, 1, 10000, 8, 4, 2)),
		newState(mkJob(3, 1, 5000, 12, 6, 2)),
	}
	dpOpts := DefaultOptions()
	dpOpts.DPJobLimit = 10 // force DP
	greedyOpts := DefaultOptions()
	greedyOpts.DPJobLimit = 0 // force greedy
	outDP := New(dpOpts).Schedule(mkCtx(c, jobs...))
	outG := New(greedyOpts).Schedule(mkCtx(c, jobs...))
	validateDecision(t, c, jobs, outDP)
	validateDecision(t, c, jobs, outG)
	if len(outDP) == 0 || len(outG) == 0 {
		t.Error("nothing scheduled on an empty cluster with eager jobs")
	}
}

func TestDPNotWorseThanGreedy(t *testing.T) {
	// Total scheduled payoff of the DP must be >= the greedy pass on the
	// same instance (DP explores a superset of greedy's choices).
	c := cluster.New(gpu.Fleet{gpu.V100: 2}, gpu.Fleet{gpu.P100: 2})
	jobs := []*sched.JobState{
		newState(mkJob(0, 4, 50000, 10, 5, 0)), // big gang wants everything
		newState(mkJob(1, 2, 10000, 10, 9, 0)),
		newState(mkJob(2, 2, 10000, 10, 9, 0)),
	}
	dpOpts := DefaultOptions()
	greedyOpts := DefaultOptions()
	greedyOpts.DPJobLimit = 0
	outDP := New(dpOpts).Schedule(mkCtx(c, jobs...))
	outG := New(greedyOpts).Schedule(mkCtx(c, jobs...))
	workers := func(m map[int]cluster.Alloc) int {
		n := 0
		for _, a := range m {
			n += a.Workers()
		}
		return n
	}
	if workers(outDP) < workers(outG) {
		t.Errorf("DP scheduled %d workers, greedy %d", workers(outDP), workers(outG))
	}
}

func TestEmptyQueue(t *testing.T) {
	s := New(DefaultOptions())
	out := s.Schedule(mkCtx(heteroCluster()))
	if len(out) != 0 {
		t.Errorf("schedule of empty queue returned %v", out)
	}
}

func TestAlphaReported(t *testing.T) {
	c := heteroCluster()
	s := New(DefaultOptions())
	st := newState(mkJob(0, 2, 10000, 10, 5, 1))
	s.Schedule(mkCtx(c, st))
	if a := s.LastAlpha(); a < 1 || math.IsInf(a, 0) || math.IsNaN(a) {
		t.Errorf("alpha = %v, want finite >= 1", a)
	}
}

func TestLinearPriceVariant(t *testing.T) {
	c := heteroCluster()
	opts := DefaultOptions()
	opts.ExponentialPrice = false
	opts.NameSuffix = "-linear"
	s := New(opts)
	states := []*sched.JobState{
		newState(mkJob(0, 2, 10000, 10, 5, 1)),
		newState(mkJob(1, 2, 10000, 9, 6, 2)),
	}
	out := s.Schedule(mkCtx(c, states...))
	validateDecision(t, c, states, out)
	if s.Name() != "hadar-linear" {
		t.Errorf("Name = %q", s.Name())
	}
}

func TestNewPanicsOnBadOptions(t *testing.T) {
	cases := []Options{
		{}, // nil utility
		{Utility: InverseJCT{}, CommCost: -1},
		{Utility: InverseJCT{}, Stickiness: 1.5},
		{Utility: InverseJCT{}, DPJobLimit: -1},
		{Utility: FinishTimeFairness{}}, // missing Jobs/TotalGPUs
	}
	for i, o := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: New did not panic", i)
				}
			}()
			New(o)
		}()
	}
}

func TestUtilitiesDecreasing(t *testing.T) {
	j := mkJob(0, 2, 10000, 10, 5, 1)
	utils := []Utility{
		EffectiveThroughput{},
		InverseJCT{},
		FinishTimeFairness{Jobs: 4, TotalGPUs: 8},
	}
	for _, u := range utils {
		v1 := u.Value(j, 5000, 100)
		v2 := u.Value(j, 5000, 200)
		if !(v1 > v2) || v2 <= 0 {
			t.Errorf("%s not positive-decreasing: U(100)=%v U(200)=%v", u.Name(), v1, v2)
		}
		if u.Name() == "" {
			t.Error("empty utility name")
		}
	}
}

func TestEffectiveThroughputValue(t *testing.T) {
	j := mkJob(0, 2, 10000, 10, 5, 1)
	if got := (EffectiveThroughput{}).Value(j, 1, 100); got != 100 {
		t.Errorf("EffectiveThroughput = %v, want 100", got)
	}
}

func TestUtilityDegenerateDuration(t *testing.T) {
	j := mkJob(0, 1, 100, 10, 5, 1)
	for _, u := range []Utility{EffectiveThroughput{}, InverseJCT{}, FinishTimeFairness{Jobs: 1, TotalGPUs: 1}} {
		if v := u.Value(j, 100, 0); math.IsInf(v, 0) || math.IsNaN(v) {
			t.Errorf("%s at zero duration = %v", u.Name(), v)
		}
	}
}

func TestPriceIncreasesWithUtilization(t *testing.T) {
	c := heteroCluster()
	st := newState(mkJob(0, 2, 10000, 10, 5, 1))
	ctx := mkCtx(c, st)
	pt := newPriceTable(ctx, InverseJCT{}, true)
	free := cluster.NewState(c)
	p0 := pt.price(free, 0, gpu.V100)
	if err := free.Allocate(cluster.Alloc{{Node: 0, Type: gpu.V100, Count: 1}}); err != nil {
		t.Fatal(err)
	}
	p1 := pt.price(free, 0, gpu.V100)
	if err := free.Allocate(cluster.Alloc{{Node: 0, Type: gpu.V100, Count: 1}}); err != nil {
		t.Fatal(err)
	}
	p2 := pt.price(free, 0, gpu.V100)
	if !(p0 < p1 && p1 < p2) {
		t.Errorf("price not increasing: %v %v %v", p0, p1, p2)
	}
	// Exponential form: empty price = Umin, full price = Umax.
	if math.Abs(p0-pt.umin[gpu.V100]) > 1e-9*p0 {
		t.Errorf("empty price %v != Umin %v", p0, pt.umin[gpu.V100])
	}
	if math.Abs(p2-pt.umax[gpu.V100]) > 1e-9*p2 {
		t.Errorf("full price %v != Umax %v", p2, pt.umax[gpu.V100])
	}
}

func TestPriceInfiniteForAbsentType(t *testing.T) {
	c := cluster.New(gpu.Fleet{gpu.V100: 1})
	st := newState(mkJob(0, 1, 100, 10, 5, 1))
	ctx := mkCtx(c, st)
	pt := newPriceTable(ctx, InverseJCT{}, true)
	if p := pt.price(cluster.NewState(c), 0, gpu.K80); !math.IsInf(p, 1) {
		t.Errorf("price of absent type = %v, want +Inf", p)
	}
}

// TestPriceTracksStateMutations: price reads the free state directly,
// so on a mixed-capacity cluster it equals at(t, used/cap) bit for bit
// after every kind of mutation, including a rollback to an earlier free
// count. Anything that ever caches prices between probes must keep this.
func TestPriceTracksStateMutations(t *testing.T) {
	c := cluster.New(
		gpu.Fleet{gpu.V100: 4}, gpu.Fleet{gpu.V100: 2},
		gpu.Fleet{gpu.P100: 3}, gpu.Fleet{gpu.K80: 1, gpu.V100: 1},
	)
	ctx := mkCtx(c, newState(mkJob(0, 2, 10000, 10, 5, 1)), newState(mkJob(1, 1, 8000, 8, 6, 2)))
	pt := newPriceTable(ctx, InverseJCT{}, true)
	free := cluster.NewState(c)
	a := cluster.Alloc{{Node: 0, Type: gpu.V100, Count: 3}, {Node: 1, Type: gpu.V100, Count: 1}, {Node: 2, Type: gpu.P100, Count: 2}}
	b := cluster.Alloc{{Node: 1, Type: gpu.V100, Count: 1}, {Node: 3, Type: gpu.V100, Count: 1}, {Node: 3, Type: gpu.K80, Count: 1}}
	steps := []struct {
		name string
		do   func() error
	}{
		{"fresh", func() error { return nil }},
		{"Allocate", func() error { return free.Allocate(a) }},
		{"Release", func() error { return free.Release(a[:1]) }},
		{"Savepoint+Allocate+Rollback", func() error {
			sp := free.Savepoint()
			err := free.Allocate(b)
			free.Rollback(sp)
			return err
		}},
	}
	for _, step := range steps {
		if err := step.do(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		for node := 0; node < c.NumNodes(); node++ {
			for _, typ := range []gpu.Type{gpu.V100, gpu.P100, gpu.K80} {
				cap := c.Capacity(node, typ)
				if cap == 0 {
					continue
				}
				used := cap - free.Free(node, typ)
				if got, want := pt.price(free, node, typ), pt.at(typ, float64(used)/float64(cap)); got != want {
					t.Errorf("after %s: price(node %d, %v) = %v, at(%d/%d) = %v", step.name, node, typ, got, used, cap, want)
				}
			}
		}
	}
}

func TestPriceBoundsOrdered(t *testing.T) {
	c := heteroCluster()
	states := []*sched.JobState{
		newState(mkJob(0, 2, 10000, 10, 5, 1)),
		newState(mkJob(1, 1, 500, 3, 2, 1)),
	}
	pt := newPriceTable(mkCtx(c, states...), EffectiveThroughput{}, true)
	for _, typ := range []gpu.Type{gpu.V100, gpu.P100, gpu.K80} {
		if pt.umax[typ] <= 0 {
			t.Errorf("Umax[%v] = %v, want > 0", typ, pt.umax[typ])
		}
		if !(pt.umin[typ] > 0 && pt.umin[typ] < pt.umax[typ]) {
			t.Errorf("bounds unordered for %v: Umin=%v Umax=%v", typ, pt.umin[typ], pt.umax[typ])
		}
	}
}

// Property: for random job mixes, every Schedule decision respects gang
// and joint capacity constraints.
func TestScheduleAlwaysValidProperty(t *testing.T) {
	c := heteroCluster()
	prop := func(seeds []uint8) bool {
		if len(seeds) == 0 {
			return true
		}
		if len(seeds) > 8 {
			seeds = seeds[:8]
		}
		var states []*sched.JobState
		for i, b := range seeds {
			w := int(b%4) + 1
			iters := float64(int(b)*100 + 500)
			j := mkJob(i, w, iters, float64(b%7)+4, float64(b%5)+2, float64(b%3)+1)
			states = append(states, newState(j))
		}
		s := New(DefaultOptions())
		out := s.Schedule(mkCtx(c, states...))
		free := cluster.NewState(c)
		for id, a := range out {
			if a.Workers() == 0 {
				continue
			}
			if a.Workers() != states[id].Job.Workers {
				return false
			}
			if err := free.Allocate(a); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: a fuller cluster never has a cheaper price (monotonicity of
// Eq. 5 in gamma), for both price shapes.
func TestPriceMonotoneProperty(t *testing.T) {
	c := cluster.New(gpu.Fleet{gpu.V100: 8})
	st := newState(mkJob(0, 2, 10000, 10, 5, 1))
	ctx := mkCtx(c, st)
	for _, exp := range []bool{true, false} {
		pt := newPriceTable(ctx, InverseJCT{}, exp)
		prop := func(a, b uint8) bool {
			ga, gb := int(a%9), int(b%9)
			if ga > gb {
				ga, gb = gb, ga
			}
			fa := cluster.NewState(c)
			fb := cluster.NewState(c)
			if ga > 0 {
				if err := fa.Allocate(cluster.Alloc{{Node: 0, Type: gpu.V100, Count: ga}}); err != nil {
					return false
				}
			}
			if gb > 0 {
				if err := fb.Allocate(cluster.Alloc{{Node: 0, Type: gpu.V100, Count: gb}}); err != nil {
					return false
				}
			}
			return pt.price(fa, 0, gpu.V100) <= pt.price(fb, 0, gpu.V100)+1e-12
		}
		if err := quick.Check(prop, nil); err != nil {
			t.Errorf("exponential=%v: %v", exp, err)
		}
	}
}

// allocTypes lists the accelerator types an allocation uses, ascending.
func allocTypes(a cluster.Alloc) []gpu.Type {
	f := gpu.Fleet{}
	for _, p := range a {
		f[p.Type] += p.Count
	}
	return f.Types()
}
