package core

import "repro/internal/sched"

// LastQueue returns the density order the most recent Schedule call
// considered its jobs in.
func (s *Scheduler) LastQueue() []*sched.JobState { return s.queueScratch }

// FreshQueue returns the density order of ctx's jobs as a scheduler
// with no previous round sorts it: starting from arrival order.
func FreshQueue(opts Options, ctx *sched.Context) []*sched.JobState {
	return New(opts).orderQueue(ctx)
}
