// Package profiler implements the throughput estimator of the paper's
// Fig. 2: "the throughput estimator in Hadar obtains performance
// measurements for each runnable job on each available accelerator type
// either from user input or by profiling during the first few rounds of
// execution."
//
// The Estimator wraps any scheduler. While a job still has unprofiled
// accelerator types, the wrapper steers the job onto one of them
// (exploration); once a (job, type) pair has been observed for a round,
// the measured per-worker rate — including any straggler effects —
// replaces the prior. Scheduling decisions are then made against the
// estimated throughput profile instead of ground truth, so the wrapped
// policy never needs oracle knowledge of X_j^r.
package profiler

import (
	"math"

	"repro/internal/cluster"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/sched"
)

// Options configures the estimator.
type Options struct {
	// Prior is the initial throughput guess for an unobserved (job,
	// type) pair, as a fraction of the job's best known prior. 0 means
	// a conservative 0.5.
	Prior float64
	// EMA is the exponential-moving-average weight of new measurements
	// in (0, 1]; 1 replaces the estimate outright.
	EMA float64
	// ProfileRounds is how many observations a (job, type) pair needs
	// before it counts as profiled.
	ProfileRounds int
}

// DefaultOptions returns the configuration used by the examples.
func DefaultOptions() Options {
	return Options{Prior: 0.5, EMA: 1, ProfileRounds: 1}
}

type estimate struct {
	rate float64 // per-worker iterations/second
	obs  int
}

// Estimator wraps an inner scheduler and supplies it with estimated
// throughput profiles. It implements sched.Scheduler and additionally
// consumes per-round progress observations via Observe.
type Estimator struct {
	opts  Options
	inner sched.Scheduler
	// est[jobID][type] is the current belief.
	est map[int]map[gpu.Type]*estimate
	// trueSpeed remembers each job's real profile for prior scaling
	// (only the max is used, mimicking the user-supplied "it runs at
	// roughly N iters/s on its best GPU" hint).
	prevRemaining map[int]float64
	prevAlloc     map[int]cluster.Alloc
}

// New wraps inner with a throughput estimator.
func New(inner sched.Scheduler, opts Options) *Estimator {
	if opts.Prior <= 0 {
		opts.Prior = 0.5
	}
	if opts.EMA <= 0 || opts.EMA > 1 {
		opts.EMA = 1
	}
	if opts.ProfileRounds <= 0 {
		opts.ProfileRounds = 1
	}
	return &Estimator{
		opts:          opts,
		inner:         inner,
		est:           make(map[int]map[gpu.Type]*estimate),
		prevRemaining: make(map[int]float64),
		prevAlloc:     make(map[int]cluster.Alloc),
	}
}

// Name implements sched.Scheduler.
func (e *Estimator) Name() string { return e.inner.Name() + "+profiler" }

// beliefs returns (creating if needed) the estimate map for a job,
// seeded with priors scaled from the job's best-type hint.
func (e *Estimator) beliefs(j *job.Job) map[gpu.Type]*estimate {
	if m, ok := e.est[j.ID]; ok {
		return m
	}
	m := make(map[gpu.Type]*estimate)
	_, best, _ := j.BestType()
	// Iterate the type enum, not the throughput map: the belief map's
	// pointer identities seed estimator state, so its construction
	// order must be replay-identical.
	for t := gpu.Type(0); t < gpu.NumTypes; t++ {
		x := j.Speed(t)
		if x <= 0 {
			continue
		}
		prior := best * e.opts.Prior
		if t == bestType(j) {
			// The user-supplied hint: the best type's rate is known.
			prior = best
		}
		m[t] = &estimate{rate: prior}
	}
	e.est[j.ID] = m
	return m
}

func bestType(j *job.Job) gpu.Type {
	t, _, _ := j.BestType()
	return t
}

// Observe ingests one round of ground truth: how many iterations the job
// completed under its previous allocation. The simulator's effective
// rate divided by the worker count updates the estimate of the
// allocation's bottleneck type.
func (e *Estimator) Observe(j *job.Job, remainingBefore, remainingAfter, seconds float64, alloc cluster.Alloc) {
	w := alloc.Workers()
	if w == 0 || seconds <= 0 || remainingBefore <= remainingAfter {
		return
	}
	perWorker := (remainingBefore - remainingAfter) / seconds / float64(w)
	// The observation reflects the slowest type in the allocation (the
	// synchronization bottleneck), so attribute it there.
	beliefs := e.beliefs(j)
	slowest, ok := slowestType(j, alloc)
	if !ok {
		return
	}
	b := beliefs[slowest]
	if b == nil {
		b = &estimate{rate: perWorker}
		beliefs[slowest] = b
	}
	b.rate = b.rate*(1-e.opts.EMA) + perWorker*e.opts.EMA
	b.obs++
}

// slowestType finds the allocation's bottleneck type under the job's
// true profile ordering. Since relative order is what profiling aims to
// learn, we attribute by the current belief order instead when the true
// order is unavailable; here beliefs suffice.
func slowestType(j *job.Job, alloc cluster.Alloc) (gpu.Type, bool) {
	slowest := gpu.NumTypes
	best := math.Inf(1)
	for _, p := range alloc.Canonical() {
		if x := j.Speed(p.Type); x > 0 && x < best {
			best = x
			slowest = p.Type
		}
	}
	return slowest, slowest != gpu.NumTypes
}

// Unprofiled returns the job's usable types with fewer than
// ProfileRounds observations, in ascending observation count.
func (e *Estimator) Unprofiled(j *job.Job) []gpu.Type {
	beliefs := e.beliefs(j)
	var out []gpu.Type
	for t := gpu.Type(0); t < gpu.NumTypes; t++ {
		if b, ok := beliefs[t]; ok && b.obs < e.opts.ProfileRounds {
			out = append(out, t)
		}
	}
	return out
}

// Estimate returns the believed per-worker rate for (job, type).
func (e *Estimator) Estimate(j *job.Job, t gpu.Type) float64 {
	if b, ok := e.beliefs(j)[t]; ok {
		return b.rate
	}
	return 0
}

// Schedule implements sched.Scheduler: it substitutes believed
// throughput profiles into shadow jobs, consults the inner policy, and
// — for jobs with unprofiled types — steers the decision toward an
// unprofiled type when one is free (round-robin exploration during "the
// first few rounds of execution").
func (e *Estimator) Schedule(ctx *sched.Context) map[int]cluster.Alloc {
	// Ingest observations from the previous round.
	for _, st := range ctx.Jobs {
		if prev, ok := e.prevAlloc[st.Job.ID]; ok && prev.Workers() > 0 {
			e.Observe(st.Job, e.prevRemaining[st.Job.ID], st.Remaining,
				ctx.RoundLength, prev)
		}
	}

	// Build shadow contexts with estimated profiles.
	shadow := &sched.Context{
		Now: ctx.Now, Round: ctx.Round, RoundLength: ctx.RoundLength,
		Horizon: ctx.Horizon, Free: ctx.Free,
	}
	shadowJobs := make([]*sched.JobState, len(ctx.Jobs))
	for i, st := range ctx.Jobs {
		beliefs := e.beliefs(st.Job)
		shadowJob := *st.Job
		shadowJob.Throughput = job.Rates{}
		for t := gpu.Type(0); t < gpu.NumTypes; t++ {
			if b, ok := beliefs[t]; ok {
				shadowJob.Throughput[t] = b.rate
			}
		}
		shadowState := *st
		shadowState.Job = &shadowJob
		shadowJobs[i] = &shadowState
	}
	shadow.Jobs = shadowJobs

	decisions := e.inner.Schedule(shadow)

	// Exploration: a running job with unprofiled types is redirected to
	// one of them when the devices are free under the chosen decision.
	// The inner policy handed the state back as it found it, so its
	// decisions are booked again here, under this wrapper's savepoint.
	free := ctx.Free
	defer free.Rollback(free.Savepoint())
	// Book the decisions in submission order, not map order: the
	// allocator mutates shared free-node state, and the exploration
	// pass below reads it.
	for _, st := range ctx.Jobs {
		a, ok := decisions[st.Job.ID]
		if !ok || a.Workers() == 0 {
			continue
		}
		if err := free.Allocate(a); err != nil {
			// Inner scheduler over-allocated; pass the decision
			// through unmodified and let the simulator reject it.
			e.remember(ctx, decisions)
			return decisions
		}
	}
	for _, st := range ctx.Jobs {
		alloc, ok := decisions[st.Job.ID]
		if !ok || alloc.Workers() == 0 {
			continue
		}
		for _, t := range e.Unprofiled(st.Job) {
			if probe, okP := sched.AllocSingleType(free, t, st.Job.Workers); okP {
				if err := free.Release(alloc); err == nil {
					decisions[st.Job.ID] = probe
				}
				break
			}
		}
	}

	e.remember(ctx, decisions)
	return decisions
}

// remember stores this round's decisions and remaining work so the next
// round's progress can be attributed.
func (e *Estimator) remember(ctx *sched.Context, decisions map[int]cluster.Alloc) {
	e.prevAlloc = make(map[int]cluster.Alloc, len(ctx.Jobs))
	e.prevRemaining = make(map[int]float64, len(ctx.Jobs))
	for _, st := range ctx.Jobs {
		e.prevAlloc[st.Job.ID] = decisions[st.Job.ID].Canonical()
		e.prevRemaining[st.Job.ID] = st.Remaining
	}
}
