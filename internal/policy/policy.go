// Package policy provides simple reference scheduling policies —
// sticky preemptive FIFO and shortest-remaining-time-first (SRTF) —
// used to sandwich the evaluated schedulers in tests and ablations.
// They are heterogeneity-aware in placement (they prefer a job's
// fastest type) but use no optimization framework, so they bound what
// placement alone, without Hadar's pricing and task-level search, can
// achieve.
package policy

import (
	"sort"

	"repro/internal/cluster"
	"repro/internal/sched"
)

// Order decides queue priority for the generic preemptive scheduler.
type Order int

const (
	// FIFO orders by arrival time.
	FIFO Order = iota
	// SRTF orders by estimated remaining runtime on the best type.
	SRTF
)

// String names the order.
func (o Order) String() string {
	switch o {
	case FIFO:
		return "fifo"
	case SRTF:
		return "srtf"
	}
	return "order?"
}

// Scheduler is a preemptive list scheduler: each round it sorts the
// queue by the configured order, keeps a running job's placement when
// it still fits (reducing checkpoint churn), and places every other
// gang greedily on the job's fastest available types (task-level
// mixing allowed, like Hadar, so differences against Hadar isolate the
// primal-dual framework rather than placement feasibility).
type Scheduler struct {
	order Order
	name  string
}

// New builds a sticky reference scheduler. The "-sticky" suffix is part
// of the name the golden digests are keyed by.
func New(order Order) *Scheduler {
	return &Scheduler{order: order, name: "ref-" + order.String() + "-sticky"}
}

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string { return s.name }

// Schedule implements sched.Scheduler.
func (s *Scheduler) Schedule(ctx *sched.Context) map[int]cluster.Alloc {
	out := make(map[int]cluster.Alloc)
	queue := append([]*sched.JobState(nil), ctx.Jobs...)
	key := func(st *sched.JobState) float64 {
		switch s.order {
		case FIFO:
			return st.Job.Arrival
		case SRTF:
			_, best, ok := st.Job.BestType()
			if !ok || best <= 0 {
				return 1e300
			}
			return st.Remaining / (float64(st.Job.Workers) * best)
		}
		return 0
	}
	sort.SliceStable(queue, func(a, b int) bool {
		ka, kb := key(queue[a]), key(queue[b])
		if ka < kb {
			return true
		}
		if ka > kb {
			return false
		}
		return queue[a].Job.ID < queue[b].Job.ID
	})

	free := ctx.Free
	defer free.Rollback(free.Savepoint())
	for _, st := range queue {
		if st.Remaining <= 0 {
			continue
		}
		if st.Running() {
			if err := free.Allocate(st.Alloc); err == nil {
				out[st.Job.ID] = st.Alloc
				continue
			}
		}
		if a, ok := sched.AllocAnyType(free, sched.UsableTypes(st.Job), st.Job.Workers); ok {
			out[st.Job.ID] = a
		}
	}
	return out
}
