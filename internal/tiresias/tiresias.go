// Package tiresias implements the Tiresias baseline (Gu et al., NSDI
// 2019) as configured in the Hadar paper: two priority queues with
// discretized least-attained-service (2DAS) scheduling and the
// PromoteKnob disabled. Tiresias is heterogeneity-unaware: it treats all
// accelerator types as interchangeable and, like Gavel, places a whole
// gang on one type per round.
package tiresias

import (
	"sort"

	"repro/internal/cluster"
	"repro/internal/gpu"
	"repro/internal/sched"
)

// The paper's configuration: two queues, PromoteKnob disabled (demoted
// jobs never return to the high queue).
const (
	// queueThreshold is the attained-service level (GPU-seconds) that
	// demotes a job from the high-priority queue to the low-priority
	// queue. Tiresias' default corresponds to a few GPU-hours.
	queueThreshold = 2 * 3600 // 2 GPU-hours
	// leaseRounds is how many rounds a job keeps its placement before
	// being re-placed. Tiresias preempts and re-launches jobs regularly
	// as queue priorities evolve; since its placement is
	// heterogeneity-unaware, re-placement makes a job's long-run
	// throughput the free-capacity-weighted average across device types
	// instead of whatever type it happened to start on.
	leaseRounds = 10 // 1 hour at 6-minute rounds
)

// Scheduler is the Tiresias baseline; it implements sched.Scheduler.
type Scheduler struct{}

// New builds a Tiresias scheduler.
func New() *Scheduler { return &Scheduler{} }

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string { return "tiresias" }

// Schedule implements sched.Scheduler.
func (s *Scheduler) Schedule(ctx *sched.Context) map[int]cluster.Alloc {
	out := make(map[int]cluster.Alloc)
	if len(ctx.Jobs) == 0 {
		return out
	}
	// 2DAS order: queue index (attained service below/above the
	// threshold), then FIFO by arrival within each queue.
	queue := append([]*sched.JobState(nil), ctx.Jobs...)
	qIndex := func(st *sched.JobState) int {
		if st.Attained < queueThreshold {
			return 0
		}
		return 1
	}
	sort.SliceStable(queue, func(a, b int) bool {
		qa, qb := qIndex(queue[a]), qIndex(queue[b])
		if qa != qb {
			return qa < qb
		}
		if queue[a].Job.Arrival < queue[b].Job.Arrival {
			return true
		}
		if queue[a].Job.Arrival > queue[b].Job.Arrival {
			return false
		}
		return queue[a].Job.ID < queue[b].Job.ID
	})

	free := ctx.Free
	defer free.Rollback(free.Savepoint())
	for _, st := range queue {
		// Keep the current placement while its lease lasts, to limit
		// checkpoint churn; preemption still happens when a higher-queue
		// job claims the devices first, and expired leases trigger a
		// fresh heterogeneity-unaware placement.
		if st.Running() && st.Rounds%leaseRounds != 0 {
			if err := free.Allocate(st.Alloc); err == nil {
				out[st.Job.ID] = st.Alloc
				continue
			}
		}
		if a, ok := s.place(free, st); ok {
			out[st.Job.ID] = a
		}
	}
	return out
}

// place books a single-type gang placement, heterogeneity-unaware: it
// prefers the type with the most free devices among the types the job
// can physically run on, regardless of throughput.
func (s *Scheduler) place(free *cluster.State, st *sched.JobState) (cluster.Alloc, bool) {
	var bestType gpu.Type
	bestFree := -1
	for t := gpu.Type(0); t < gpu.NumTypes; t++ {
		if st.Job.Speed(t) <= 0 {
			continue
		}
		if f := free.FreeOfType(t); f >= st.Job.Workers && f > bestFree {
			bestFree = f
			bestType = t
		}
	}
	if bestFree < 0 {
		return nil, false
	}
	return sched.AllocSingleType(free, bestType, st.Job.Workers)
}
