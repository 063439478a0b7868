package sim

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/eventq"
	"repro/internal/gpu"
	"repro/internal/invariant"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/sched"
)

// JobPhase is the engine-tracked lifecycle stage of a submitted job.
type JobPhase int

// Lifecycle stages: a job is Pending from submission until its arrival
// event is admitted at a round boundary, Active while the scheduler can
// see it (allocated or queued), and terminally Finished or Cancelled.
const (
	JobPending JobPhase = iota
	JobActive
	JobFinished
	JobCancelled
)

// String names the phase.
func (p JobPhase) String() string {
	switch p {
	case JobPending:
		return "pending"
	case JobActive:
		return "active"
	case JobFinished:
		return "finished"
	case JobCancelled:
		return "cancelled"
	}
	return fmt.Sprintf("JobPhase(%d)", int(p))
}

// arriveEvent admits a submitted job into the active set at the first
// round boundary at or after its time.
type arriveEvent struct{ st *sched.JobState }

// withdrawEvent removes a job (pending or active) from the simulation.
type withdrawEvent struct{ id int }

// Engine is the steppable core of the round-based simulator. It owns
// the virtual clock, the arrival/withdrawal event queue, the scheduler
// under test, per-round validation, and the metrics report, but —
// unlike the batch Run wrapper — it advances only when told to:
//
//	eng, _ := NewEngine(cluster, scheduler, opts)
//	eng.SubmitJob(j)                  // any time, including mid-run
//	for eng.HasPendingEvents() {
//	    eng.ProcessNextEvent()        // one round boundary per call
//	}
//	report, err := eng.Finish()
//
// The step contract (HasPendingEvents / PeekNextEventTime /
// ProcessNextEvent) lets a caller interleave the engine with other
// work: submit jobs between steps, read Snapshot() mid-run, or drive
// several engines under one shared clock by always stepping the engine
// whose PeekNextEventTime is earliest.
//
// An Engine is not safe for concurrent use; a long-lived service wraps
// it in a single goroutine (see internal/service) and publishes
// immutable Snapshots for readers.
type Engine struct {
	s         sched.Scheduler
	opts      Options
	report    *metrics.Report
	log       *eventLogger
	chk       *invariant.Checker
	rateModel func(j *job.Job, a cluster.Alloc) float64
	// freeState is the run's one free-capacity state: lent to the
	// scheduler every round, then used to validate what it returned;
	// fully free between rounds, except for the nodes marked down.
	freeState *cluster.State

	queue           eventq.EventQueue
	pendingArrivals int
	cancelRequested map[int]bool
	active          []*sched.JobState
	prevDown        map[int]bool
	now             float64
	round           int
	stalled         int
	cancelled       int
	digest          uint64
	err             error

	// all is every submitted job in submission order. It is append-only,
	// and the jobs in it are never written: Jobs() shares it by clamped
	// prefix and the encoded-history cache encodes each job once.
	all []*job.Job
	// live holds the phase of every pending or active job and done every
	// terminal one: together, each job in all exactly once. live is
	// bounded by the queue; done only grows, and every published snapshot
	// shares it (see terminalIndex). Both start empty and unallocated.
	live map[int]JobPhase
	done terminalIndex
	// maxID is the largest ID in all.
	maxID int

	// encoded is the JSON of all and of the report's three append-only
	// slices, as far as the last checkpoint took them (AppendState).
	encoded encodedHistory

	// Round scratch, made by the first round and reused by every round
	// after it (NewEngine stays cheap: the sim benchmarks pay it as
	// set-up every repetition). ctx is lent to the scheduler for the call
	// only; its Jobs is a copy of active, which the round compacts in
	// place. applied holds one record per active job that is not idle
	// (see collectDecisions), in active's order, filled by the round's one
	// decision-map lookup per job; byID indexes applied by ascending job
	// ID (the digest and validation walk it in that order); canon holds
	// every decision's canonical form back to back, in byID order; tally
	// books the decisions validation accepts. obs is the round's
	// observations for the checker.
	ctx     sched.Context
	applied []appliedJob
	byID    []int32
	canon   cluster.Alloc
	tally   cluster.Tally
	obs     []invariant.JobRound
}

// appliedJob is one decision of the round. An active job's record also
// carries it between runRound's two apply passes; a record without st
// is a decision-map key naming no active job. decided is the
// scheduler's allocation (lent until its next call), workers its
// Workers(), canon[lo:hi] its canonical form, and changed whether that
// differs from the job's allocation before this round.
type appliedJob struct {
	id      int
	st      *sched.JobState
	decided cluster.Alloc
	workers int
	lo, hi  int32
	changed bool
}

// NewEngine builds an engine over the cluster with the given scheduler
// and options. The engine starts empty at t=0; submit jobs with
// SubmitJob.
func NewEngine(c *cluster.Cluster, s sched.Scheduler, opts Options) (*Engine, error) {
	if err := opts.normalize(c.NumNodes()); err != nil {
		return nil, err
	}
	e := &Engine{
		s:         s,
		opts:      opts,
		report:    &metrics.Report{Scheduler: s.Name(), TotalGPUs: c.TotalGPUs()},
		log:       newEventLogger(opts.EventLog),
		freeState: cluster.NewState(c),

		cancelRequested: make(map[int]bool),
	}
	// Correctness oracle, enabled by Options.Validate: observes every
	// round's decisions and progress accounting and fails the run on
	// the first violated invariant. Rates are checked against the same
	// bottleneck model the simulator charges (full cluster, so node
	// straggler factors apply).
	if opts.Validate {
		e.chk = invariant.NewChecker(c)
		e.rateModel = func(j *job.Job, a cluster.Alloc) float64 { return sched.Rate(j, c, a) }
	}
	return e, nil
}

// SubmitJob validates the job and enqueues its arrival event at
// max(j.Arrival, now); the job enters the scheduler's view at the
// first round boundary at or after that time. Jobs may be submitted at
// any point of the engine's lifetime, which is what makes the
// simulator an online system: an idle engine picks the work back up on
// the next ProcessNextEvent. Once accepted, j belongs to the engine:
// the caller must not change it afterwards (snapshots, checkpoints and
// journal replay all read it as it was submitted).
func (e *Engine) SubmitJob(j *job.Job) error {
	if e.err != nil {
		return e.err
	}
	if err := j.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	// Can j ever be placed on the full cluster, outages not applied?
	usable := 0
	for t, n := range e.freeState.Cluster().Fleet() {
		if j.Speed(gpu.Type(t)) > 0 {
			usable += n
		}
	}
	if usable < j.Workers {
		return fmt.Errorf("sim: %v can never be placed (needs %d workers, %d usable devices)",
			j, j.Workers, usable)
	}
	if _, ok := e.Phase(j.ID); ok {
		return fmt.Errorf("sim: duplicate job ID %d", j.ID)
	}
	st := &sched.JobState{
		Job:       j,
		Remaining: j.TotalIters(),
	}
	e.track(j, JobPending)
	arrival := j.Arrival
	if arrival < e.now {
		arrival = e.now
	}
	e.queue.Push(arrival, arriveEvent{st: st})
	e.pendingArrivals++
	return nil
}

// track records a submitted job as live in the given phase.
func (e *Engine) track(j *job.Job, phase JobPhase) {
	if e.live == nil {
		e.live = make(map[int]JobPhase)
	}
	e.live[j.ID] = phase
	if len(e.all) == 0 || j.ID > e.maxID {
		e.maxID = j.ID
	}
	e.all = append(e.all, j)
}

// retire moves a job from the live phases to the terminal index; ref is
// its index in the report's Jobs, or cancelledRef.
func (e *Engine) retire(id, ref int) {
	delete(e.live, id)
	e.done = e.done.with(id, ref)
}

// CancelJob enqueues a withdrawal event for the job at the current
// time: at the next processed boundary the job leaves the simulation,
// whether it was still pending or already running (a running job's
// devices free at that boundary, exactly like a completion). Cancelling
// an unknown, finished, or already-cancelled job is an error.
func (e *Engine) CancelJob(id int) error {
	if e.err != nil {
		return e.err
	}
	phase, ok := e.Phase(id)
	if !ok {
		return fmt.Errorf("sim: cancel of unknown job %d", id)
	}
	switch {
	case phase == JobFinished:
		return fmt.Errorf("sim: cancel of finished job %d", id)
	case phase == JobCancelled || e.cancelRequested[id]:
		return fmt.Errorf("sim: job %d already cancelled", id)
	}
	e.cancelRequested[id] = true
	e.queue.Push(e.now, withdrawEvent{id: id})
	return nil
}

// HasPendingEvents reports whether the engine still has work: active
// jobs to schedule or queued arrival/withdrawal events. A false result
// is not terminal — SubmitJob re-arms the engine.
func (e *Engine) HasPendingEvents() bool {
	return e.err == nil && (len(e.active) > 0 || e.queue.Len() > 0)
}

// PeekNextEventTime returns the simulated time at which the next
// ProcessNextEvent call will act: the upcoming round boundary while
// jobs are active, or the boundary the engine will fast-forward to for
// the earliest queued event while idle. ok is false when the engine has
// nothing to do. A multi-cluster driver steps whichever engine reports
// the earliest time, giving N engines one shared clock.
func (e *Engine) PeekNextEventTime() (t float64, ok bool) {
	if !e.HasPendingEvents() {
		return 0, false
	}
	if len(e.active) > 0 {
		return e.now, true
	}
	return e.fastForwardTarget(), true
}

// fastForwardTarget is the round boundary at or after the earliest
// queued event (strictly after now).
func (e *Engine) fastForwardTarget() float64 {
	arr := e.queue.Peek().Time
	skip := math.Ceil(arr/e.opts.RoundLength) * e.opts.RoundLength
	if skip <= e.now {
		skip = e.now + e.opts.RoundLength
	}
	return skip
}

// ProcessNextEvent advances the engine by exactly one round boundary:
// admit due arrivals and withdrawals, then either run one scheduling
// round (active jobs exist) or fast-forward the clock to the boundary
// of the earliest queued event (cluster idle). Errors — scheduler
// protocol violations, oracle violations, event-log failures — are
// sticky: the engine refuses further work after the first one.
func (e *Engine) ProcessNextEvent() error {
	if e.err != nil {
		return e.err
	}
	if e.round >= e.opts.MaxRounds {
		return e.fail(fmt.Errorf("sim: exceeded %d rounds with %d jobs unfinished",
			e.opts.MaxRounds, len(e.active)+e.pendingArrivals))
	}
	// Admit arrivals and withdrawals up to now.
	if err := e.admitDue(); err != nil {
		return e.fail(err)
	}
	if len(e.active) == 0 {
		if e.queue.Len() == 0 {
			return nil // idle: nothing to schedule, nothing queued
		}
		// Fast-forward to the round boundary at or after the next
		// arrival.
		e.now = e.fastForwardTarget()
		e.round++
		return nil
	}
	if err := e.runRound(); err != nil {
		return e.fail(err)
	}
	e.now += e.opts.RoundLength
	e.round++
	return nil
}

// fail records the first error and poisons the engine.
func (e *Engine) fail(err error) error {
	if e.err == nil {
		e.err = err
	}
	return e.err
}

// admitDue pops every event due at or before now. Arrivals append to
// the active set in (time, submission-order) order — identical to the
// batch simulator's sorted-trace admission; withdrawals remove the job
// from wherever it is.
func (e *Engine) admitDue() error {
	for e.queue.Len() > 0 && e.queue.Peek().Time <= e.now {
		ev := e.queue.Pop()
		switch p := ev.Payload.(type) {
		case arriveEvent:
			e.pendingArrivals--
			id := p.st.Job.ID
			if _, ok := e.live[id]; !ok {
				continue // withdrawn before arrival
			}
			e.live[id] = JobActive
			e.active = append(e.active, p.st)
			if err := e.log.emit(Event{Time: ev.Time, Round: e.round,
				Type: EventArrive, Job: id, Node: -1}); err != nil {
				return err
			}
		case withdrawEvent:
			delete(e.cancelRequested, p.id)
			phase, ok := e.live[p.id]
			if !ok {
				continue // finished before the withdrawal took effect
			}
			if phase == JobActive {
				for i, st := range e.active {
					if st.Job.ID == p.id {
						e.active = append(e.active[:i], e.active[i+1:]...)
						break
					}
				}
			}
			e.retire(p.id, cancelledRef)
			e.cancelled++
			if err := e.log.emit(Event{Time: ev.Time, Round: e.round,
				Type: EventCancel, Job: p.id, Node: -1}); err != nil {
				return err
			}
		}
	}
	return nil
}

// runRound executes one full scheduling round at the current boundary:
// failure bookkeeping, the scheduler call, joint-decision validation
// against the persistent free state, and per-job progress accounting.
// This is the former body of the batch Run loop, unchanged.
func (e *Engine) runRound() error {
	// Failure handling: schedulers see nodes that are down *now*
	// (they cannot foresee an outage beginning mid-round), while
	// progress accounting uses any outage overlapping the round.
	viewDown := downNodes(e.opts.Failures, e.now, 1e-9)
	surpriseDown := downNodes(e.opts.Failures, e.now, e.opts.RoundLength)
	for _, n := range sortedIntKeys(viewDown) {
		if !e.prevDown[n] {
			if err := e.freeState.SetDown(n, true); err != nil {
				return err
			}
			e.report.Faults.NodeDown++
			if err := e.log.emit(Event{Time: e.now, Round: e.round, Type: EventNodeDown, Job: -1, Node: n}); err != nil {
				return err
			}
		}
	}
	for _, n := range sortedIntKeys(e.prevDown) {
		if !viewDown[n] {
			if err := e.freeState.SetDown(n, false); err != nil {
				return err
			}
			e.report.Faults.NodeUp++
			if err := e.log.emit(Event{Time: e.now, Round: e.round, Type: EventNodeUp, Job: -1, Node: n}); err != nil {
				return err
			}
		}
	}
	e.prevDown = viewDown // nil without outages: reading it is fine

	ctx := &e.ctx
	*ctx = sched.Context{
		Now:         e.now,
		Round:       e.round,
		RoundLength: e.opts.RoundLength,
		Horizon:     horizon(e.now, e.active, e.opts.RoundLength),
		Free:        e.freeState,
		Jobs:        append(ctx.Jobs[:0], e.active...),
	}
	lentHash := e.freeState.Hash()
	//lint:ignore wallclock DecisionTime reports the scheduler's real compute latency; it never feeds back into simulated time
	start := time.Now()
	decisions := e.s.Schedule(ctx)
	//lint:ignore wallclock real solver latency for the report, not simulated time
	e.report.DecisionTime += time.Since(start)
	e.report.Decisions++
	e.report.Rounds++
	if e.freeState.Hash() != lentHash || e.freeState.Savepoints() != 0 {
		return fmt.Errorf("sim: %s did not return the lent free state as found (%d savepoints open, %d devices booked)",
			e.s.Name(), e.freeState.Savepoints(), e.freeState.TotalCapacity()-e.freeState.TotalFree())
	}
	n := e.collectDecisions(decisions)
	e.foldDigest(ctx.Round)

	// Validate the joint decision against the same state the scheduler
	// searched, booking it on the engine's tally, which reads the state
	// and never writes it, so a rejected round leaves the state as it
	// was. A down node has nothing free there, so a placement on it
	// fails like any other over-allocation. An idle job has no record:
	// its empty decision would pass.
	e.tally.Reset(e.freeState)
	for _, i := range e.byID {
		d := &e.applied[i]
		if d.st == nil {
			if d.workers > 0 {
				return fmt.Errorf("sim: %s allocated to unknown or inactive job %d", e.s.Name(), d.id)
			}
			continue
		}
		if err := sched.Validate(d.st.Job, d.decided); err != nil {
			return fmt.Errorf("sim: %s: %w", e.s.Name(), err)
		}
		if d.workers > 0 {
			if err := e.tally.Add(d.decided); err != nil {
				return fmt.Errorf("sim: %s over-allocated: %w", e.s.Name(), err)
			}
		}
	}

	// Apply decisions. First pass: detect reallocations and, when
	// contention modeling is on, count how many reallocated jobs
	// checkpoint through each node this round. The second pass copies a
	// changed decision out of the round's buffer, so the engine never
	// holds scheduler-owned memory past the round, and an unchanged job —
	// the common case — costs no allocation.
	var nodeCheckpoints map[int]int
	if e.opts.CheckpointContention {
		// Only allocated when contention modeling is on: the common
		// no-contention round never touches the map.
		nodeCheckpoints = map[int]int{}
	}
	for i := range e.applied[:n] {
		d := &e.applied[i]
		// The held allocation is canonical unless a checkpoint restored
		// it otherwise; Equal canonicalises such a one before comparing.
		next := e.canon[d.lo:d.hi]
		d.changed = !next.Equal(d.st.Alloc)
		if e.opts.CheckpointContention && d.changed {
			for _, p := range d.st.Alloc.Canonical() {
				nodeCheckpoints[p.Node]++
			}
			for _, p := range next {
				nodeCheckpoints[p.Node]++
			}
		}
	}

	// Second pass: advance each allocated job, compacting the active set
	// in place (kept never overtakes the pass). It walks the active set
	// with a cursor into the records, which follow it in order: a job
	// with no record is idle, held nothing and gets nothing, so it only
	// stays.
	anyAllocated := false
	heldThisRound := 0
	kept := e.active[:0]
	e.obs = e.obs[:0]
	rec := 0
	for _, st := range e.active {
		if rec == n || e.applied[rec].st != st {
			if e.chk != nil {
				e.observe(st, nil, st.Remaining, 0, false)
			}
			kept = append(kept, st)
			continue
		}
		aj := &e.applied[rec]
		rec++
		prev, changed := st.Alloc, aj.changed
		if changed {
			st.Alloc = append(cluster.Alloc(nil), e.canon[aj.lo:aj.hi]...)
		}
		newAlloc := st.Alloc
		remBefore := st.Remaining
		w := newAlloc.Workers()
		if w == 0 {
			if prev.Workers() > 0 {
				if err := e.log.emit(Event{Time: e.now, Round: e.round, Type: EventPause,
					Job: st.Job.ID, Node: -1}); err != nil {
					return err
				}
			}
			if e.chk != nil {
				e.observe(st, nil, remBefore, 0, false)
			}
			kept = append(kept, st)
			continue
		}
		anyAllocated = true
		if !st.Started {
			st.Started = true
			st.StartTime = e.now
			if err := e.log.emitAlloc(Event{Time: e.now, Round: e.round, Type: EventStart,
				Job: st.Job.ID, Node: -1}, newAlloc); err != nil {
				return err
			}
		}
		e.report.JobRoundAllocs++
		// Here and in the progress sums below, float64(…) rounds each
		// product before it is added: Go may fuse x*y+z into one
		// instruction (arm64, ppc64le, s390x and riscv64 do), which would
		// move the totals by an ulp from one platform to another.
		// Accumulates within the conservation oracle's tolerance
		// (invariant.Tol); checked against busy time per round.
		e.report.HeldGPUSeconds += float64(float64(w) * e.opts.RoundLength)
		heldThisRound += w
		realloc := changed && prev.Workers() > 0
		if realloc {
			e.report.JobRoundReallocs++
			st.Reallocations++
			if err := e.log.emitAlloc(Event{Time: e.now, Round: e.round, Type: EventRealloc,
				Job: st.Job.ID, Node: -1}, newAlloc); err != nil {
				return err
			}
		}

		delay := stallFor(st.Job.Model, changed, e.opts)
		if e.opts.CheckpointContention && changed {
			factor := 1
			for _, p := range append(newAlloc.Canonical(), prev.Canonical()...) {
				if n := nodeCheckpoints[p.Node]; n > factor {
					factor = n
				}
			}
			delay *= float64(factor)
		}
		if delay >= e.opts.RoundLength {
			delay = e.opts.RoundLength
		}
		window := e.opts.RoundLength - delay
		rate := sched.Rate(st.Job, e.freeState.Cluster(), newAlloc)
		// A node failing during the round kills the gang's progress
		// for the whole round: the work since the last checkpoint is
		// lost and the job re-places at the next boundary.
		if len(surpriseDown) > 0 {
			killed := false
			for _, p := range newAlloc {
				if surpriseDown[p.Node] {
					killed = true
					break
				}
			}
			if killed {
				lost := rate * window
				if lost > st.Remaining {
					lost = st.Remaining
				}
				// Accumulates within the oracle's tolerance (invariant.Tol).
				e.report.Faults.LostIterations += lost
				e.report.Faults.Recoveries++
				if e.chk != nil {
					e.observe(st, newAlloc, remBefore, window, true)
				}
				kept = append(kept, st)
				continue
			}
		}
		st.Rounds++
		var used uint
		for _, p := range newAlloc {
			if p.Count > 0 {
				used |= 1 << p.Type
			}
		}
		for t := range st.RoundsByType {
			if used&(1<<t) != 0 {
				st.RoundsByType[t]++
			}
		}

		if rate <= 0 {
			// Allocated but cannot progress (validated types make
			// this unreachable, but stay safe).
			if e.chk != nil {
				e.observe(st, newAlloc, remBefore, window, false)
			}
			kept = append(kept, st)
			continue
		}
		if st.Remaining <= rate*window {
			// Finishes within this round.
			tau := st.Remaining / rate
			st.Remaining = 0
			// Both accumulate within invariant.Tol tolerance; the
			// invariant oracle re-derives them each round.
			st.Attained += float64(float64(w) * tau)
			e.report.BusyGPUSeconds += float64(float64(w) * tau)
			finish := e.now + delay + tau
			if e.opts.QuantizeCompletions {
				finish = e.now + e.opts.RoundLength
			}
			e.retire(st.Job.ID, len(e.report.Jobs))
			e.report.Jobs = append(e.report.Jobs, jobResult(st, finish, len(e.all), e.freeState.Cluster().TotalGPUs()))
			if err := e.log.emit(Event{Time: finish, Round: e.round, Type: EventFinish,
				Job: st.Job.ID, Node: -1}); err != nil {
				return err
			}
			if finish > e.report.Makespan {
				e.report.Makespan = finish
			}
			if e.chk != nil {
				e.observe(st, newAlloc, remBefore, window, false)
			}
			// Job leaves the active set; its GPUs are free from the
			// next boundary on (the simulator rebuilds allocations
			// each round).
			continue
		}
		// All three accumulate within invariant.Tol tolerance; the
		// oracle checks conservation of work to that tolerance each round.
		st.Remaining -= float64(rate * window)
		st.Attained += float64(float64(w) * window)
		e.report.BusyGPUSeconds += float64(float64(w) * window)
		if e.chk != nil {
			e.observe(st, newAlloc, remBefore, window, false)
		}
		kept = append(kept, st)
	}
	clear(e.active[len(kept):]) // finished jobs leave no pointer behind
	e.active = kept
	if e.chk != nil {
		e.chk.CheckRound(invariant.Round{
			Index: e.round, Now: e.now, Length: e.opts.RoundLength,
			Down: e.prevDown, Jobs: e.obs, Scheduler: e.s, Rate: e.rateModel,
		})
		// Fail fast so the offending round is the one in the error.
		if err := e.chk.Err(); err != nil {
			return fmt.Errorf("sim: %s: %w", e.s.Name(), err)
		}
	}
	e.report.RoundHeld = append(e.report.RoundHeld, heldThisRound)
	e.report.RoundStarts = append(e.report.RoundStarts, e.now)

	if !anyAllocated && len(e.active) > 0 {
		e.stalled++
		if e.stalled >= e.opts.StallLimit {
			return fmt.Errorf("sim: %s stalled for %d rounds with %d active jobs at t=%.0fs",
				e.s.Name(), e.stalled, len(e.active), e.now)
		}
	} else {
		e.stalled = 0
	}
	return nil
}

// observe records one job's round for the checker.
func (e *Engine) observe(st *sched.JobState, alloc cluster.Alloc, before, window float64, killed bool) {
	e.obs = append(e.obs, invariant.JobRound{
		Job: st.Job, Alloc: alloc,
		RemainingBefore: before, RemainingAfter: st.Remaining,
		Window: window, Killed: killed,
	})
}

// collectDecisions reads the scheduler's decisions into the round
// scratch with one map lookup per active job and returns how many
// active jobs it recorded. It skips the idle ones, whose decision and
// held allocation both list no placement at all: validation passes
// them, the digest folds nothing for them, their allocation stays as
// it is and the progress pass only keeps them. (Idleness is read from
// the lists' lengths, not their worker counts, so a decision whose
// counts cancel out takes the recorded path, as every decision did
// before idle jobs were skipped.) It sorts byID (active jobs are
// admitted in ID order on every trace, so the sort is usually one
// linear pass), and canonicalises every decision once, in that order,
// into canon. Keys the lookups did not reach name no active job, or an
// idle one with an empty decision. Each of those whose worker count is
// not zero joins applied as a record without a JobState: the digest
// folds it, and validation fails the round on it (see runRound).
func (e *Engine) collectDecisions(decisions map[int]cluster.Alloc) int {
	e.applied = slices.Grow(e.applied[:0], len(e.active))
	e.byID = slices.Grow(e.byID[:0], len(e.active))
	matched, placements := 0, 0
	for _, st := range e.active {
		d, ok := decisions[st.Job.ID]
		if ok {
			matched++
		}
		if len(d) == 0 && len(st.Alloc) == 0 {
			continue
		}
		placements += len(d)
		e.byID = append(e.byID, int32(len(e.applied)))
		e.applied = append(e.applied, appliedJob{id: st.Job.ID, st: st, decided: d, workers: d.Workers()})
	}
	n := len(e.applied)
	e.sortByID()
	if matched != len(decisions) {
		//lint:ignore maprange the body only appends records, which sortByID puts in ID order next
		for id, d := range decisions {
			_, active := slices.BinarySearchFunc(e.byID[:n], id, func(i int32, id int) int {
				return cmp.Compare(e.applied[i].id, id)
			})
			if active || d.Workers() == 0 {
				continue
			}
			placements += len(d)
			e.applied = append(e.applied, appliedJob{id: id, decided: d, workers: d.Workers()})
			e.byID = append(e.byID, int32(len(e.applied)-1))
		}
		e.sortByID()
	}
	e.canon = slices.Grow(e.canon[:0], placements)
	for _, i := range e.byID {
		d := &e.applied[i]
		d.lo = int32(len(e.canon))
		e.canon = d.decided.AppendCanonical(e.canon)
		d.hi = int32(len(e.canon))
	}
	return n
}

// sortByID sorts the applied index by job ID.
func (e *Engine) sortByID() {
	slices.SortFunc(e.byID, func(a, b int32) int {
		return cmp.Compare(e.applied[a].id, e.applied[b].id)
	})
}

// FNV-64a parameters (hash/fnv's, folded inline by fnvWrite).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvZeros[k] is fnvPrime64 to the k-th power, modulo 2^64: what k zero
// bytes do to an FNV-64a state, since XOR with a zero byte leaves the
// state as it was and only the multiply remains.
var fnvZeros = func() (p [9]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * fnvPrime64
	}
	return p
}()

// fnvWrite folds v's 8 little-endian bytes into the FNV-64a state h. It
// hashes the bytes up to v's highest non-zero one and folds the zero
// bytes above them in one multiply by fnvZeros, which is exact: the
// result equals hashing all 8 bytes one at a time.
func fnvWrite(h uint64, v int) uint64 {
	u := uint64(v)
	k := (bits.Len64(u) + 7) / 8
	for i := 0; i < k; i++ {
		h ^= u & 0xff
		h *= fnvPrime64
		u >>= 8
	}
	return h * fnvZeros[8-k]
}

// foldDigest chains this round's canonical decisions into the engine's
// running schedule digest: an FNV-64a hash of the round index and each
// allocated job's ID and sorted (node, type, count) placements, chained
// across rounds so reordering cannot cancel out. It walks the decisions
// collectDecisions gathered, in ascending job ID order, which is the
// order of the decision map's sorted keys. The scheme is identical to
// the golden-digest recorder in determinism_test.go; only integer
// decision data enters the hash, so the digest is stable across
// platforms and Go versions as long as the schedule itself is. Recovery
// uses it as its oracle: a journal replay must reproduce the digest
// recorded after every round, byte for byte.
func (e *Engine) foldDigest(round int) {
	h := fnvWrite(fnvOffset64, round)
	for _, i := range e.byID {
		d := &e.applied[i]
		if d.workers == 0 {
			continue
		}
		h = fnvWrite(h, d.id)
		for _, p := range e.canon[d.lo:d.hi] {
			h = fnvWrite(h, p.Node)
			h = fnvWrite(h, int(p.Type))
			h = fnvWrite(h, p.Count)
		}
	}
	e.digest = e.digest*fnvPrime64 + h
}

// Digest returns the chained per-round schedule digest over every
// scheduling round executed so far (idle fast-forward rounds do not
// contribute). Two engines that processed identical operation sequences
// have identical digests.
func (e *Engine) Digest() uint64 { return e.digest }

// Finish returns the report so far with its jobs sorted by ID and, when
// the oracle is enabled, validated against every submitted job. The
// result is the caller's: the engine's own report stays in completion
// order (published snapshots share it), so Finish does not stop the
// engine — more jobs may be submitted and processed afterwards, and
// Finish called again, without the earlier result changing.
func (e *Engine) Finish() (*metrics.Report, error) {
	if e.err != nil {
		return nil, e.err
	}
	report := e.report.SortedByID()
	if e.chk != nil {
		e.chk.CheckReport(report, e.all)
		if err := e.chk.Err(); err != nil {
			return nil, e.fail(fmt.Errorf("sim: %s: %w", e.s.Name(), err))
		}
	}
	return report, nil
}

// Now returns the engine's current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// ActiveJobs returns the number of admitted, unfinished jobs the
// scheduler currently sees. Together with PendingJobs it is the
// engine's queue depth, which inter-cluster routers read on every
// submission — hence an O(1) accessor instead of a full Snapshot.
func (e *Engine) ActiveJobs() int { return len(e.active) }

// PendingJobs returns submitted jobs whose arrival event has not yet
// been admitted at a round boundary.
func (e *Engine) PendingJobs() int { return e.pendingArrivals }

// HeldGPUs returns the number of devices held in the most recently
// executed scheduling round (0 before the first round).
func (e *Engine) HeldGPUs() int {
	if n := len(e.report.RoundHeld); n > 0 {
		return e.report.RoundHeld[n-1]
	}
	return 0
}

// Jobs returns every submitted job in submission order: a read-only,
// capacity-clamped view of the engine's append-only list.
func (e *Engine) Jobs() []*job.Job { return e.all[:len(e.all):len(e.all)] }

// Round returns the next round index (rounds consumed so far,
// including idle fast-forwards).
func (e *Engine) Round() int { return e.round }

// Phase reports the lifecycle stage of a submitted job.
func (e *Engine) Phase(id int) (JobPhase, bool) {
	if p, ok := e.live[id]; ok {
		return p, true
	}
	if t, ok := e.done.get(id); ok {
		return t.phase(), true
	}
	return 0, false
}
