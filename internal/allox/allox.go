// Package allox implements an AlloX-flavored baseline (Le et al.,
// EuroSys 2020, discussed in the paper's related work): each round it
// solves a minimum-cost assignment of waiting jobs to accelerator
// types — cost being the job's estimated remaining runtime on that type,
// scaled by SRPT-style position weighting — using the internal LP
// solver, then realizes the fractional assignment greedily.
//
// Like Gavel and Tiresias it is job-level (a gang occupies one
// accelerator type), so it inherits the blocking behavior Hadar's
// task-level gangs avoid; unlike Tiresias it is heterogeneity-aware
// through the cost matrix. AlloX proper targets CPU/GPU hybrid clusters
// and interactive jobs; this adaptation keeps its min-cost matching
// heart in the paper's GPU-only, gang-scheduled setting.
package allox

import (
	"sort"

	"repro/internal/cluster"
	"repro/internal/lp"
	"repro/internal/sched"
)

// Scheduler is the AlloX-like baseline; it implements sched.Scheduler.
type Scheduler struct{}

// New builds the scheduler.
func New() *Scheduler { return &Scheduler{} }

// Name implements sched.Scheduler.
func (*Scheduler) Name() string { return "allox" }

// Schedule implements sched.Scheduler.
func (s *Scheduler) Schedule(ctx *sched.Context) map[int]cluster.Alloc {
	out := make(map[int]cluster.Alloc)
	if len(ctx.Jobs) == 0 {
		return out
	}
	types := ctx.Free.Types()
	jobs := ctx.Jobs

	// Cost of assigning job j to type r: its estimated remaining
	// runtime there. The LP maximizes assigned value = 1/cost (shorter
	// jobs on faster types first — the completion-time heart of AlloX's
	// matching), subject to one type per job and per-type capacity.
	nv := len(jobs) * len(types)
	idx := func(j, r int) int { return j*len(types) + r }
	c := make([]float64, nv)
	for ji, st := range jobs {
		for ri, t := range types {
			x := st.Job.Speed(t)
			if x <= 0 || st.Remaining <= 0 {
				continue
			}
			runtime := st.Remaining / (float64(st.Job.Workers) * x)
			if runtime <= 0 {
				runtime = 1e-9
			}
			c[idx(ji, ri)] = 1 / runtime
		}
	}
	var A [][]float64
	var B []float64
	// One type per job.
	for ji := range jobs {
		row := make([]float64, nv)
		for ri := range types {
			row[idx(ji, ri)] = 1
		}
		A = append(A, row)
		B = append(B, 1)
	}
	// Capacity per type.
	for ri, t := range types {
		row := make([]float64, nv)
		for ji, st := range jobs {
			row[idx(ji, ri)] = float64(st.Job.Workers)
		}
		A = append(A, row)
		B = append(B, float64(ctx.Free.CapacityOfType(t)))
	}
	sol, err := lp.Solve(lp.Problem{C: c, A: A, B: B})

	// Rank (job, type) pairs by the LP's fractional preference (value x
	// fraction), falling back to pure value order if the LP failed.
	type pair struct {
		ji, ri int
		score  float64
	}
	var pairs []pair
	for ji := range jobs {
		for ri := range types {
			v := c[idx(ji, ri)]
			if v <= 0 {
				continue
			}
			score := v
			if err == nil && sol.Status == lp.Optimal {
				score = v * sol.X[idx(ji, ri)]
			}
			if score > 0 {
				pairs = append(pairs, pair{ji: ji, ri: ri, score: score})
			}
		}
	}
	sort.SliceStable(pairs, func(a, b int) bool {
		if pairs[a].score > pairs[b].score {
			return true
		}
		if pairs[a].score < pairs[b].score {
			return false
		}
		if pairs[a].ji != pairs[b].ji {
			return jobs[pairs[a].ji].Job.ID < jobs[pairs[b].ji].Job.ID
		}
		return pairs[a].ri < pairs[b].ri
	})

	defer ctx.Free.Rollback(ctx.Free.Savepoint())
	assigned := make(map[int]bool, len(jobs))
	for _, p := range pairs {
		st := jobs[p.ji]
		if assigned[st.Job.ID] {
			continue
		}
		t := types[p.ri]
		a, ok := sched.AllocSingleType(ctx.Free, t, st.Job.Workers)
		if !ok {
			continue
		}
		out[st.Job.ID] = a
		assigned[st.Job.ID] = true
	}
	return out
}
