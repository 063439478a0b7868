package core

import "repro/internal/sched"

// LastQueue returns the density order the most recent Schedule call
// considered its jobs in.
func (s *Scheduler) LastQueue() []*sched.JobState { return s.queueScratch }

// FreshQueue returns the density order of ctx's jobs as a scheduler
// with no previous round sorts it: starting from arrival order, with
// the densities of a freshly filled price table.
func FreshQueue(opts Options, ctx *sched.Context) []*sched.JobState {
	s := New(opts)
	s.prices.fill(ctx, &s.opts)
	return s.orderQueue(ctx)
}
