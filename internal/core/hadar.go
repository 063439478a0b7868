package core

import (
	"cmp"
	"slices"

	"repro/internal/bug"
	"repro/internal/cluster"
	"repro/internal/gpu"
	"repro/internal/sched"
)

// PanicOnInconsistency, when true, turns internal allocation
// inconsistencies (a candidate that no longer fits the free state the
// scheduler itself maintains) into panics instead of silently skipped
// decisions. Tests enable it so placement bugs fail loudly; production
// keeps it off and reads Scheduler.Inconsistencies instead.
var PanicOnInconsistency bool

// Options configures the Hadar scheduler. The zero value is not valid;
// use DefaultOptions.
type Options struct {
	// Utility is the per-job utility U_j(.) the dual subroutine
	// maximizes. Swapping it expresses other scheduling policies
	// (Section III.A, "Expressing other scheduling policies").
	Utility Utility
	// CommCost is the relative cost surcharge per additional server an
	// allocation spans (Algorithm 2 line 27 adds a communication cost to
	// non-consolidated allocations).
	CommCost float64
	// Stickiness is the cost discount applied to a job's existing
	// allocation, suppressing needless checkpoint-restart churn. The
	// paper observes only ~30% of rounds change an average job's
	// allocation.
	Stickiness float64
	// DPJobLimit bounds the queue size for the exact memoized DP
	// (Algorithm 2); larger queues fall back to the greedy
	// payoff-density pass, preserving Fig. 7's scalability.
	DPJobLimit int
	// TaskLevel enables mixed-accelerator-type gangs (Hadar's core
	// feature). Disabling it yields a job-level heterogeneity-aware
	// scheduler for the DESIGN.md ablation.
	TaskLevel bool
	// ExponentialPrice selects Eq. 5's exponential price function; false
	// uses a linear price (ablation).
	ExponentialPrice bool
	// Backfill makes the scheduler work-conserving: after the
	// positive-payoff primal-dual pass, leftover devices are offered to
	// the remaining jobs in priority order even when their payoff is
	// non-positive. This matches the high GPU utilization the paper
	// reports for Hadar (Fig. 4) without affecting who wins the
	// contended devices.
	Backfill bool
	// NameSuffix distinguishes ablation variants in reports.
	NameSuffix string
}

// DefaultOptions returns the configuration used for the paper's JCT
// experiments.
func DefaultOptions() Options {
	return Options{
		Utility:          InverseJCT{},
		CommCost:         0.1,
		Stickiness:       0.3,
		DPJobLimit:       10,
		TaskLevel:        true,
		ExponentialPrice: true,
		Backfill:         true,
	}
}

// Scheduler is Hadar (Algorithm 1): at every round it recomputes dual
// prices from the live workload and runs the DP/greedy dual subroutine
// to admit and place jobs with positive payoff. It implements
// sched.Scheduler and is not safe for concurrent use.
type Scheduler struct {
	opts      Options
	lastAlpha float64
	// prices is the round's price table, refilled in place by every
	// Schedule; lastPrices points at it once a round has run (nil
	// before), so what it reports is valid until the next Schedule.
	prices     priceTable
	lastPrices *priceTable
	// inconsistencies counts internal allocation failures: decisions the
	// dual subroutine produced that did not fit the free state it was
	// itself tracking. Always 0 unless there is a placement bug.
	inconsistencies int
	// probe is the allocation passes' FIND_ALLOC working set, reused
	// across rounds (the scheduler is documented as not safe for
	// concurrent use).
	probe probe
	// dp is the DP's memo and pick arena, reset by every search.
	dp dpSearch
	// Per-round scratch, all recycled between rounds: the decision map
	// Schedule returns (lent to the caller until the next call), the
	// density-ordered queue, and the per-queue-index decided flags.
	decisions    map[int]cluster.Alloc
	queueScratch []*sched.JobState
	decided      []bool
	// The queue order carried from round to round: the previous round's
	// sort entries, still in their sorted order, the ctx.Jobs they were
	// built from, and the scratch mapping an index of lastJobs to the
	// job's index in this round's ctx.Jobs.
	entScratch []queueEntry
	lastJobs   []*sched.JobState
	remap      []int
}

// New builds a Hadar scheduler. It panics on invalid options so
// misconfiguration fails fast at construction.
func New(opts Options) *Scheduler {
	if err := validateUtility(opts.Utility); err != nil {
		bug.Failf("core: %v", err)
	}
	if opts.CommCost < 0 || opts.Stickiness < 0 || opts.Stickiness >= 1 {
		bug.Failf("core: invalid CommCost %v / Stickiness %v", opts.CommCost, opts.Stickiness)
	}
	if opts.DPJobLimit < 0 {
		bug.Failf("core: negative DPJobLimit %d", opts.DPJobLimit)
	}
	return &Scheduler{opts: opts}
}

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string { return "hadar" + s.opts.NameSuffix }

// LastAlpha returns the competitive-ratio factor alpha (Theorem 2) of
// the most recent round's price bounds; Hadar is 2*alpha competitive.
func (s *Scheduler) LastAlpha() float64 { return s.lastAlpha }

// PriceBounds returns the most recent round's per-type utility bounds
// U_min^r / U_max^r (Eq. 6-7), indexed by gpu.Type. Types no active job
// can use report U_max = 0. It implements invariant.PriceReporter so
// the correctness oracle can audit the dual price state every round.
func (s *Scheduler) PriceBounds() (umin, umax []float64) {
	if s.lastPrices == nil {
		return nil, nil
	}
	return s.lastPrices.umin[:], s.lastPrices.umax[:]
}

// PriceAt evaluates the most recent round's marginal price function k^r
// (Eq. 5) for type t at the given utilization fraction in [0, 1]. It
// implements invariant.PriceReporter.
func (s *Scheduler) PriceAt(t gpu.Type, utilization float64) float64 {
	if s.lastPrices == nil || !t.Valid() {
		return 0
	}
	return s.lastPrices.at(t, utilization)
}

// Inconsistencies returns how many internal allocation failures the
// scheduler has swallowed across its lifetime. Nonzero values indicate
// a placement bug: a candidate won the dual subroutine but no longer
// fit the very free state the subroutine priced it against.
func (s *Scheduler) Inconsistencies() int { return s.inconsistencies }

// noteInconsistency records (or, under PanicOnInconsistency, raises) an
// internal allocation failure.
func (s *Scheduler) noteInconsistency(err error) {
	s.inconsistencies++
	if PanicOnInconsistency {
		bug.Failf("core: inconsistent allocation decision: %v", err)
	}
}

// Schedule implements sched.Scheduler. The returned map and its
// allocations are the scheduler's own: the next call clears the map and
// overwrites the allocations.
func (s *Scheduler) Schedule(ctx *sched.Context) map[int]cluster.Alloc {
	if s.decisions == nil {
		s.decisions = make(map[int]cluster.Alloc)
	}
	out := s.decisions
	clear(out)
	if len(ctx.Jobs) == 0 {
		return out
	}
	pt := &s.prices
	pt.fill(ctx, &s.opts)
	s.lastAlpha = pt.alpha()
	s.lastPrices = pt

	queue := s.orderQueue(ctx)
	s.decided = slices.Grow(s.decided[:0], len(queue))[:len(queue)]
	clear(s.decided)
	// Every pass searches the lent state: the primal-dual pass leaves
	// its decisions allocated on it, backfill continues from there, and
	// the one rollback hands it back as found.
	defer ctx.Free.Rollback(ctx.Free.Savepoint())
	s.probe.bind(&s.opts, pt, ctx.Free)
	if len(queue) <= s.opts.DPJobLimit {
		s.dpAllocate(ctx, queue, out)
	} else {
		s.sweep(ctx, queue, out, false)
	}
	if s.opts.Backfill {
		s.sweep(ctx, queue, out, true)
	}
	return out
}

// queueEntry pairs a job with its queue-ordering density for the
// closure-free sort, and with its index in the ctx.Jobs the entry was
// built from, which the next round's orderQueue matches against.
type queueEntry struct {
	st      *sched.JobState
	density float64
	pos     int
}

// byDensity orders entries by descending density, ties by ascending job
// ID. Job IDs are unique, so the order is total and an unstable sort
// produces the same permutation a stable sort would, from any starting
// order. It is a package-level function, not a closure or a
// sort.Interface, so sorting allocates nothing.
func byDensity(a, b queueEntry) int {
	switch {
	case a.density > b.density:
		return -1
	case a.density < b.density:
		return 1
	}
	return cmp.Compare(a.st.Job.ID, b.st.Job.ID)
}

// orderQueue sorts jobs by descending payoff density: the utility of an
// immediate full-speed completion per requested worker, which the
// round's fill has already computed. This is the order both the greedy
// pass and the DP consider jobs in. The entry and queue slices are
// reused across rounds; callers must not retain the returned slice past
// the round.
//
// The sort starts from the previous round's order, not from arrival
// order. ctx.Jobs lists jobs in arrival order, so from one round to the
// next it only loses jobs and gains arrivals at its end: one forward
// walk matches last round's list against this one, the survivors keep
// their sorted places with fresh densities, and the arrivals go last.
// Densities drift slowly, so the sort sees an almost sorted slice.
// byDensity is a strict total order, so the permutation is the one a
// sort from any other start gives; a list that is not such a successor
// (a scheduler reused across unrelated contexts) only matches less and
// appends more.
func (s *Scheduler) orderQueue(ctx *sched.Context) []*sched.JobState {
	remap := s.remap[:0]
	matched := 0
	for _, st := range s.lastJobs {
		at := -1
		if matched < len(ctx.Jobs) && ctx.Jobs[matched] == st {
			at = matched
			matched++
		}
		remap = append(remap, at)
	}
	ents := s.entScratch[:0]
	for _, e := range s.entScratch {
		if at := remap[e.pos]; at >= 0 {
			ents = append(ents, s.entry(ctx, at))
		}
	}
	for i := matched; i < len(ctx.Jobs); i++ {
		ents = append(ents, s.entry(ctx, i))
	}
	slices.SortFunc(ents, byDensity)
	queue := s.queueScratch[:0]
	for _, e := range ents {
		queue = append(queue, e.st)
	}
	s.entScratch, s.queueScratch, s.remap = ents, queue, remap
	s.lastJobs = append(s.lastJobs[:0], ctx.Jobs...)
	return queue
}

// entry is the queue entry of ctx.Jobs[i] for this round, its density
// read from the round's price table.
func (s *Scheduler) entry(ctx *sched.Context, i int) queueEntry {
	return queueEntry{st: ctx.Jobs[i], density: s.prices.density[i], pos: i}
}

// sweep is one pass over the queue in payoff-density order, allocating
// each job not yet decided at its best candidate and repricing as
// capacity fills. As the large-queue primal-dual pass it admits only
// positive payoffs (the filter mu_j > 0); as the backfill pass it admits
// every feasible candidate, offering the leftover devices to the jobs
// the filter rejected, which makes the schedule work-conserving.
func (s *Scheduler) sweep(ctx *sched.Context, queue []*sched.JobState, out map[int]cluster.Alloc, backfill bool) {
	free := ctx.Free
	for i, st := range queue {
		if free.TotalFree() == 0 {
			break // every further probe would come back empty-handed
		}
		if s.decided[i] || st.Remaining <= 0 || free.TotalFree() < st.Job.Workers {
			continue
		}
		cand, ok := s.probe.findAlloc(st, ctx)
		if !ok || (cand.payoff <= 0 && !backfill) {
			continue
		}
		alloc := s.probe.retain(cand.alloc)
		if err := free.Allocate(alloc); err != nil {
			s.noteInconsistency(err)
			continue
		}
		out[st.Job.ID] = alloc
		s.decided[i] = true
	}
}
