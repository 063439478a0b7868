// Package yarncs implements the Apache YARN capacity-scheduler baseline
// (YARN-CS) as used in the Hadar paper: a production-style,
// non-preemptive FIFO scheduler that treats GPUs as fungible containers.
// It never revokes a running job's devices, which gives it the highest
// raw GPU utilization in the paper's Fig. 4 — at the cost of very long
// completion times, since gangs may straddle slow and fast accelerators
// and short jobs queue behind long ones.
package yarncs

import (
	"sort"

	"repro/internal/cluster"
	"repro/internal/gpu"
	"repro/internal/sched"
)

// Scheduler is the YARN-CS baseline; it implements sched.Scheduler.
type Scheduler struct{}

// New builds a YARN-CS scheduler.
func New() *Scheduler { return &Scheduler{} }

// Name implements sched.Scheduler.
func (*Scheduler) Name() string { return "yarn-cs" }

// Schedule implements sched.Scheduler. Running jobs keep their exact
// allocation; waiting jobs are started in arrival order whenever their
// full gang fits in the free pool (capacity schedulers continue down the
// queue past a job that does not fit).
func (*Scheduler) Schedule(ctx *sched.Context) map[int]cluster.Alloc {
	out := make(map[int]cluster.Alloc)
	free := ctx.Free
	defer free.Rollback(free.Savepoint())

	// Non-preemptive: running jobs are untouchable.
	for _, st := range ctx.Jobs {
		if st.Running() {
			if err := free.Allocate(st.Alloc); err == nil {
				out[st.Job.ID] = st.Alloc
			}
		}
	}
	waiting := make([]*sched.JobState, 0, len(ctx.Jobs))
	for _, st := range ctx.Jobs {
		if _, ok := out[st.Job.ID]; !ok {
			waiting = append(waiting, st)
		}
	}
	sort.SliceStable(waiting, func(a, b int) bool {
		if waiting[a].Job.Arrival < waiting[b].Job.Arrival {
			return true
		}
		if waiting[a].Job.Arrival > waiting[b].Job.Arrival {
			return false
		}
		return waiting[a].Job.ID < waiting[b].Job.ID
	})
	for _, st := range waiting {
		a, ok := place(free, st)
		if !ok {
			// Strict FIFO: a gang job that does not fit holds its queue
			// position (DL jobs under YARN spin up containers and wait),
			// blocking everything behind it. This head-of-line blocking
			// is what makes YARN-CS's completion times 7-15x worse than
			// Hadar's in the paper.
			break
		}
		out[st.Job.ID] = a
	}
	return out
}

// place books containers heterogeneity-unawares: the whole gang goes
// on the single type with the most free devices (node locality is what
// YARN packs by, not device speed). Only a gang too large for every
// type's total capacity falls back to mixing types — and then runs at
// the slowest device's speed.
func place(free *cluster.State, st *sched.JobState) (cluster.Alloc, bool) {
	bestFree := -1
	var bestType gpu.Type
	mixable := 0
	var prefer []gpu.Type
	for t := gpu.Type(0); t < gpu.NumTypes; t++ {
		if st.Job.Speed(t) <= 0 {
			continue
		}
		prefer = append(prefer, t)
		mixable += free.CapacityOfType(t)
		if f := free.FreeOfType(t); f >= st.Job.Workers && f > bestFree {
			bestFree = f
			bestType = t
		}
	}
	if bestFree >= 0 {
		return sched.AllocSingleType(free, bestType, st.Job.Workers)
	}
	// Can any single type ever host this gang? If yes, wait for it.
	for _, t := range prefer {
		if free.CapacityOfType(t) >= st.Job.Workers {
			return nil, false
		}
	}
	if mixable < st.Job.Workers {
		return nil, false
	}
	return sched.AllocAnyType(free, prefer, st.Job.Workers)
}
