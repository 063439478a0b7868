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
	"cmp"
	"fmt"
	"slices"
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
	// keys holds the rendered key of every class seen so far, so each is
	// formatted once; the LP's columns are sorted by it.
	keys map[class]string
	// LP solution cache, invalidated when the sorted class histogram
	// changes.
	cacheHist []classCount
	cacheY    map[class][]float64 // class -> per-type time fraction
}

// New builds a Gavel scheduler.
func New() *Scheduler { return &Scheduler{} }

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string { return "gavel" }

// class groups jobs that are interchangeable in the allocation LP.
type class struct {
	model   string
	workers int
	rates   job.Rates
}

func classOf(j *job.Job) class { return class{j.Model, j.Workers, j.Throughput} }

// key is the class rendered as model/workers/rate/..., every rate in
// %g.
func (s *Scheduler) key(c class) string {
	if key, ok := s.keys[c]; ok {
		return key
	}
	key := fmt.Sprintf("%s/%d", c.model, c.workers)
	for _, x := range c.rates {
		key += fmt.Sprintf("/%g", x)
	}
	if s.keys == nil {
		s.keys = map[class]string{}
	}
	s.keys[c] = key
	return key
}

// classCount is one class of the histogram: its rendered key, how many
// jobs it has, and the first of them.
type classCount struct {
	key string
	n   int
	rep *job.Job
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
		frac, ok := y[classOf(st.Job)]
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
	slices.SortStableFunc(pairs, func(a, b pair) int {
		if c := cmp.Compare(b.priority, a.priority); c != 0 {
			return c
		}
		if c := cmp.Compare(a.st.Job.ID, b.st.Job.ID); c != 0 {
			return c
		}
		return cmp.Compare(a.t, b.t)
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
func (s *Scheduler) allocationMatrix(ctx *sched.Context) map[class][]float64 {
	at := map[class]int{} // class -> its index in hist
	var hist []classCount
	for _, st := range ctx.Jobs {
		c := classOf(st.Job)
		i, ok := at[c]
		if !ok {
			i = len(hist)
			at[c] = i
			hist = append(hist, classCount{key: s.key(c), rep: st.Job})
		}
		hist[i].n++
	}
	sort.Slice(hist, func(a, b int) bool { return hist[a].key < hist[b].key })
	if s.cacheY != nil && slices.EqualFunc(hist, s.cacheHist, func(a, b classCount) bool {
		return a.key == b.key && a.n == b.n
	}) {
		return s.cacheY
	}
	s.cacheHist = hist

	types := ctx.Free.Types()
	ng, nr := len(hist), len(types)
	// Variables: Y[g][r] laid out row-major, then lambda.
	nv := ng*nr + 1
	idx := func(g, r int) int { return g*nr + r }
	lambdaIdx := nv - 1

	var A [][]float64
	var B []float64
	row := func() []float64 { return make([]float64, nv) }

	for g, h := range hist {
		j := h.rep
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
		for g, h := range hist {
			rc[idx(g, r)] = float64(h.n) * float64(h.rep.Workers)
		}
		A = append(A, rc)
		B = append(B, float64(ctx.Free.CapacityOfType(t)))
	}
	c := make([]float64, nv)
	c[lambdaIdx] = 1

	sol, err := lp.Solve(lp.Problem{C: c, A: A, B: B})
	y := make(map[class][]float64, ng)
	if err != nil || sol.Status != lp.Optimal {
		// Degenerate fallback: every class prefers its best type full
		// time. The priority rounds still enforce capacity.
		for _, h := range hist {
			frac := make([]float64, gpu.NumTypes)
			if t, _, ok := h.rep.BestType(); ok {
				frac[t] = 1
			}
			y[classOf(h.rep)] = frac
		}
	} else {
		for g, h := range hist {
			frac := make([]float64, gpu.NumTypes)
			for r, t := range types {
				if v := sol.X[idx(g, r)]; v > 1e-9 {
					frac[t] = v
				}
			}
			y[classOf(h.rep)] = frac
		}
	}
	s.cacheY = y
	return y
}
