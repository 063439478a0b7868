// Package gavel implements the Gavel baseline (Narayanan et al., OSDI
// 2020) as configured in the Hadar paper's comparison: a job-level
// heterogeneity-aware scheduler that solves a max-min LP for the
// fraction of time each job should spend on each accelerator type, then
// realizes the fractions with round-based priority scheduling
// (priority = allocation / rounds received).
//
// Unlike Hadar, Gavel places all tasks of a job on a single accelerator
// type per round, so a gang can be blocked even when the cluster has
// enough devices across types — the limitation the paper's motivation
// example exploits.
//
// The LP is solved exactly with the internal simplex solver. Jobs with
// identical throughput profiles and gang sizes are symmetric in the LP
// and are aggregated into classes, so the LP stays small (at most
// #models x #gang-sizes classes) even for 2048-job traces; this mirrors
// Gavel's own scalability optimizations.
package gavel

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/lp"
	"repro/internal/sched"
)

// epsilon stabilizes the priority ratio for jobs with zero rounds
// received.
const epsilon = 1e-3

// Scheduler is the Gavel baseline; it implements sched.Scheduler and is
// not safe for concurrent use.
type Scheduler struct {
	// LP solution cache, invalidated when the class histogram changes.
	cacheSig string
	cacheY   map[string][]float64 // class key -> per-type time fraction
}

// New builds a Gavel scheduler.
func New() *Scheduler { return &Scheduler{} }

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string { return "gavel" }

// classKey groups jobs that are interchangeable in the allocation LP.
func classKey(j *job.Job) string {
	key := fmt.Sprintf("%s/%d", j.Model, j.Workers)
	for t := gpu.Type(0); t < gpu.NumTypes; t++ {
		key += fmt.Sprintf("/%g", j.Speed(t))
	}
	return key
}

// Schedule implements sched.Scheduler.
func (s *Scheduler) Schedule(ctx *sched.Context) map[int]cluster.Alloc {
	out := make(map[int]cluster.Alloc)
	if len(ctx.Jobs) == 0 {
		return out
	}
	y := s.allocationMatrix(ctx)

	// Priority rounds: rank (job, type) pairs by Y / rounds-received and
	// admit greedily, one type per job (job-level allocation).
	type pair struct {
		st       *sched.JobState
		t        gpu.Type
		priority float64
	}
	var pairs []pair
	types := ctx.Free.Types()
	for _, st := range ctx.Jobs {
		frac, ok := y[classKey(st.Job)]
		if !ok {
			continue
		}
		for _, t := range types {
			if st.Job.Speed(t) <= 0 || frac[t] <= 0 {
				continue
			}
			received := epsilon + st.RoundsByType[t]
			pairs = append(pairs, pair{st: st, t: t, priority: frac[t] / received})
		}
	}
	sort.SliceStable(pairs, func(a, b int) bool {
		if pairs[a].priority > pairs[b].priority {
			return true
		}
		if pairs[a].priority < pairs[b].priority {
			return false
		}
		if pairs[a].st.Job.ID != pairs[b].st.Job.ID {
			return pairs[a].st.Job.ID < pairs[b].st.Job.ID
		}
		return pairs[a].t < pairs[b].t
	})

	defer ctx.Free.Rollback(ctx.Free.Savepoint())
	for _, p := range pairs {
		if _, done := out[p.st.Job.ID]; done {
			continue
		}
		a, ok := sched.AllocSingleType(ctx.Free, p.t, p.st.Job.Workers)
		if !ok {
			continue
		}
		out[p.st.Job.ID] = a
	}
	return out
}

// allocationMatrix returns, per class, the optimal per-type time
// fractions from the max-min LP, recomputing only when the active class
// histogram changes.
func (s *Scheduler) allocationMatrix(ctx *sched.Context) map[string][]float64 {
	// Histogram of classes.
	counts := map[string]int{}
	rep := map[string]*job.Job{}
	var keys []string
	for _, st := range ctx.Jobs {
		k := classKey(st.Job)
		if counts[k] == 0 {
			keys = append(keys, k)
			rep[k] = st.Job
		}
		counts[k]++
	}
	sort.Strings(keys)
	sig := ""
	for _, k := range keys {
		sig += fmt.Sprintf("%s=%d;", k, counts[k])
	}
	if sig == s.cacheSig && s.cacheY != nil {
		return s.cacheY
	}

	types := ctx.Free.Types()
	ng, nr := len(keys), len(types)
	// Variables: Y[g][r] laid out row-major, then lambda.
	nv := ng*nr + 1
	idx := func(g, r int) int { return g*nr + r }
	lambdaIdx := nv - 1

	var A [][]float64
	var B []float64
	row := func() []float64 { return make([]float64, nv) }

	for g, k := range keys {
		j := rep[k]
		// scale_g: best achievable per-job throughput, so lambda is the
		// min normalized throughput across classes.
		_, best, ok := j.BestType()
		if !ok {
			continue
		}
		// lambda*scale - sum_r Y_gr * X_gr * W <= 0.
		r1 := row()
		r1[lambdaIdx] = best * float64(j.Workers)
		for r, t := range types {
			r1[idx(g, r)] = -j.Speed(t) * float64(j.Workers)
		}
		A = append(A, r1)
		B = append(B, 0)
		// sum_r Y_gr <= 1.
		r2 := row()
		for r := range types {
			r2[idx(g, r)] = 1
		}
		A = append(A, r2)
		B = append(B, 1)
		// Forbid types that cannot host the gang or that the job cannot
		// use: Y_gr <= 0.
		for r, t := range types {
			if j.Speed(t) <= 0 || ctx.Free.CapacityOfType(t) < j.Workers {
				r3 := row()
				r3[idx(g, r)] = 1
				A = append(A, r3)
				B = append(B, 0)
			}
		}
	}
	// Capacity per type: sum_g count_g * W_g * Y_gr <= C_r.
	for r, t := range types {
		rc := row()
		for g, k := range keys {
			rc[idx(g, r)] = float64(counts[k]) * float64(rep[k].Workers)
		}
		A = append(A, rc)
		B = append(B, float64(ctx.Free.CapacityOfType(t)))
	}
	c := make([]float64, nv)
	c[lambdaIdx] = 1

	sol, err := lp.Solve(lp.Problem{C: c, A: A, B: B})
	y := make(map[string][]float64, ng)
	if err != nil || sol.Status != lp.Optimal {
		// Degenerate fallback: every class prefers its best type full
		// time. The priority rounds still enforce capacity.
		for _, k := range keys {
			frac := make([]float64, gpu.NumTypes)
			if t, _, ok := rep[k].BestType(); ok {
				frac[t] = 1
			}
			y[k] = frac
		}
	} else {
		for g, k := range keys {
			frac := make([]float64, gpu.NumTypes)
			for r, t := range types {
				if v := sol.X[idx(g, r)]; v > 1e-9 {
					frac[t] = v
				}
			}
			y[k] = frac
		}
	}
	s.cacheSig = sig
	s.cacheY = y
	return y
}
