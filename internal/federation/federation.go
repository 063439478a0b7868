// Package federation runs N independent regional clusters — each its
// own sim.Engine with its own cluster.State, scheduler, and invariant
// checker — behind one front door and one shared clock.
//
// The design is the shared-clock multi-instance event loop: the
// federation never merges engine state and never lets one member touch
// another's cluster. It merely controls *which member advances next* by
// always stepping the engine whose PeekNextEventTime is earliest (ties
// break by member index, so the loop is deterministic). Jobs arrive at
// the federation's front door, a pluggable Router picks the owning
// member at submission time, and cancels and queries are forwarded to
// that owner for the rest of the job's life.
//
// Like sim.Engine, a Federation is single-goroutine: a long-lived
// service drives it from its one owning goroutine (internal/service —
// every service owns a Federation, of one member or of many) and
// publishes immutable FedSnapshots for concurrent readers.
package federation

import (
	"fmt"
	"reflect"
	"sort"

	"repro/internal/cluster"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
)

// MemberConfig describes one regional cluster of the federation. Each
// member owns its Cluster and Scheduler exclusively: configs must not
// share either across members (engines mutate scheduler state and
// track per-cluster free state).
type MemberConfig struct {
	// Name labels the member in snapshots, reports, and routing
	// errors; empty names default to "member<i>".
	Name string
	// Cluster is the member's private capacity.
	Cluster *cluster.Cluster
	// Scheduler is the member's private policy instance.
	Scheduler sched.Scheduler
	// Sim configures the member's engine, including its own failure
	// windows (chaos) and per-member invariant checking (Sim.Validate).
	// When every member sets Sim.Validate, the federation-level
	// invariants run too: ownership uniqueness and job-count
	// conservation after every processed event, the full
	// iteration-conservation audit at Finish.
	Sim sim.Options
}

// member pairs a config with its live engine and the static capacity
// figures every routing view starts from.
type member struct {
	name string
	cfg  MemberConfig
	eng  *sim.Engine

	// outages is cfg.Sim.Failures ordered by node, so that a view walks
	// each node's windows together and counts a down node once.
	outages []sim.Failure
}

// Federation owns N member engines, a router, and the shared-clock
// event loop. It mirrors the sim.Engine step contract (SubmitJob /
// CancelJob / HasPendingEvents / PeekNextEventTime / ProcessNextEvent /
// Finish) so everything that can drive an engine can drive a
// federation.
//
// A Federation is not safe for concurrent use: like the engines it
// owns, it is single-owner state, mutated only by the goroutine that
// drives it (see internal/service) and read through immutable
// FedSnapshots.
type Federation struct {
	members []*member
	router  Router
	// validate is set when every member validates (MemberConfig.Sim).
	validate bool

	// owner maps each submitted job ID to its member index; jobs lists
	// the accepted jobs in submission order (the deterministic
	// iteration order for snapshots and invariant sweeps).
	owner map[int]int
	jobs  []*job.Job
	// next is the routing cursor handed to the Router: one past the
	// member that accepted the previous submission. Only an accepted
	// submission moves it, and it is checkpointed.
	next int
	// views is RouteJob's scratch, lent to the Router for one call.
	views []View

	// lastWork is the completed-iterations watermark of the previous
	// full invariant audit; cancelSeen tracks whether a cancellation
	// happened since (cancels may legitimately retire partial work).
	lastWork   float64
	cancelSeen bool

	err error
}

// New builds a federation over the given members and router. At least
// one member is required; every member needs a cluster and a
// scheduler, and no two members may share either.
func New(configs []MemberConfig, router Router) (*Federation, error) {
	if len(configs) == 0 {
		return nil, fmt.Errorf("federation: no members")
	}
	if router == nil {
		return nil, fmt.Errorf("federation: nil router")
	}
	f := &Federation{
		router:   router,
		validate: true,
		owner:    make(map[int]int),
	}
	for i, cfg := range configs {
		if cfg.Cluster == nil || cfg.Scheduler == nil {
			return nil, fmt.Errorf("federation: member %d missing cluster or scheduler", i)
		}
		for k := 0; k < i; k++ {
			if configs[k].Cluster == cfg.Cluster {
				return nil, fmt.Errorf("federation: members %d and %d share a cluster", k, i)
			}
			if sharedScheduler(configs[k].Scheduler, cfg.Scheduler) {
				return nil, fmt.Errorf("federation: members %d and %d share a scheduler", k, i)
			}
		}
		name := cfg.Name
		if name == "" {
			name = fmt.Sprintf("member%d", i)
		}
		eng, err := sim.NewEngine(cfg.Cluster, cfg.Scheduler, cfg.Sim)
		if err != nil {
			return nil, fmt.Errorf("federation: member %s: %w", name, err)
		}
		m := &member{name: name, cfg: cfg, eng: eng}
		f.validate = f.validate && cfg.Sim.Validate
		m.outages = append(m.outages, cfg.Sim.Failures...)
		sort.SliceStable(m.outages, func(a, b int) bool { return m.outages[a].Node < m.outages[b].Node })
		f.members = append(f.members, m)
	}
	return f, nil
}

// sharedScheduler reports whether two member schedulers are the same
// mutable instance. Only pointer identity counts: schedulers carry
// cross-round state behind pointers, while stateless value schedulers
// (empty structs in tests) compare equal without sharing anything.
func sharedScheduler(a, b sched.Scheduler) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	return va.Kind() == reflect.Pointer && vb.Kind() == reflect.Pointer && va.Pointer() == vb.Pointer()
}

// fail records the first error and poisons the federation.
func (f *Federation) fail(err error) error {
	if f.err == nil {
		f.err = err
	}
	return f.err
}

// Now returns the shared clock: the furthest simulated time any member
// has advanced to. Members can trail this (the loop only advances the
// earliest), but none is ahead of it.
func (f *Federation) Now() float64 {
	now := 0.0
	for _, m := range f.members {
		if t := m.eng.Now(); t > now {
			now = t
		}
	}
	return now
}

// SubmitJob routes the job through the Router and submits it to the
// chosen member, recording ownership. Routing is deterministic: the
// same submission sequence against the same federation state always
// picks the same members.
func (f *Federation) SubmitJob(j *job.Job) error {
	idx, err := f.RouteJob(j)
	if err != nil {
		return err
	}
	return f.SubmitTo(idx, j)
}

// SubmitTo submits the job to member idx without consulting the Router
// and, once the member accepts it, records ownership and advances the
// routing cursor: the second half of SubmitJob, and how a journal replay
// returns a submission to the member that accepted it.
func (f *Federation) SubmitTo(idx int, j *job.Job) error {
	if f.err != nil {
		return f.err
	}
	if idx < 0 || idx >= len(f.members) {
		return fmt.Errorf("federation: member %d outside [0, %d)", idx, len(f.members))
	}
	if _, dup := f.owner[j.ID]; dup {
		return fmt.Errorf("federation: duplicate job ID %d", j.ID)
	}
	if err := f.members[idx].eng.SubmitJob(j); err != nil {
		return err
	}
	f.owner[j.ID] = idx
	f.jobs = append(f.jobs, j)
	f.next = idx + 1
	return nil
}

// RouteJob runs the routing decision for a job without submitting it:
// it builds the per-member views, filters to members that can place
// the job (preferring ones healthy right now), and asks the Router to
// pick. It changes nothing, so callers can audit routing decisions.
func (f *Federation) RouteJob(j *job.Job) (int, error) {
	now := f.Now()
	var speed [gpu.NumTypes]float64
	for t := gpu.Type(0); t < gpu.NumTypes; t++ {
		speed[t] = j.Speed(t)
	}
	views := f.views[:0]
	healthy := 0
	for i, m := range f.members {
		v := m.view(i, j.Workers, &speed, now)
		if !v.Eligible {
			continue
		}
		views = append(views, v)
		if v.Healthy {
			healthy++
		}
	}
	f.views = views[:0]
	if len(views) == 0 {
		return 0, fmt.Errorf("federation: no member can ever place %v (needs %d workers)", j, j.Workers)
	}
	// Prefer members that could place the job on currently-up nodes;
	// when an outage has taken every candidate down, fall back to the
	// full eligible set and let the job queue at its member.
	if healthy > 0 && healthy < len(views) {
		up := views[:0]
		for _, v := range views {
			if v.Healthy {
				up = append(up, v)
			}
		}
		views = up
	}
	idx := f.router.Route(j, views, f.next)
	if idx < 0 || idx >= len(f.members) {
		return 0, fmt.Errorf("federation: router %s picked invalid member %d", f.router.Name(), idx)
	}
	return idx, nil
}

// CancelJob forwards the cancellation to the owning member.
func (f *Federation) CancelJob(id int) error {
	if f.err != nil {
		return f.err
	}
	idx, ok := f.owner[id]
	if !ok {
		return fmt.Errorf("federation: cancel of unknown job %d", id)
	}
	if err := f.members[idx].eng.CancelJob(id); err != nil {
		return err
	}
	f.cancelSeen = true
	return nil
}

// Owner returns the member index that owns a submitted job.
func (f *Federation) Owner(id int) (int, bool) {
	idx, ok := f.owner[id]
	return idx, ok
}

// HasPendingEvents reports whether any member still has work.
func (f *Federation) HasPendingEvents() bool {
	if f.err != nil {
		return false
	}
	for _, m := range f.members {
		if m.eng.HasPendingEvents() {
			return true
		}
	}
	return false
}

// PeekNextEventTime returns the earliest next-event time across all
// members — the shared clock's next tick. ok is false when every
// member is idle.
func (f *Federation) PeekNextEventTime() (t float64, ok bool) {
	i := f.NextMember()
	if i < 0 {
		return 0, false
	}
	t, _ = f.members[i].eng.PeekNextEventTime()
	return t, true
}

// NextMember is the member ProcessNextEvent advances next: the one with
// the earliest PeekNextEventTime, ties broken by lowest member index.
// Returns -1 when no member has pending events.
func (f *Federation) NextMember() int {
	best := -1
	var bestT float64
	for i, m := range f.members {
		t, ok := m.eng.PeekNextEventTime()
		if !ok {
			continue
		}
		if best < 0 || t < bestT {
			best, bestT = i, t
		}
	}
	return best
}

// ProcessNextEvent advances the federation by exactly one member round
// boundary: the member with the earliest next event processes one
// event while every other member stays frozen. Errors from any member
// — scheduler protocol violations, per-member oracle violations, or
// federation-level invariant violations — are sticky.
func (f *Federation) ProcessNextEvent() error {
	if f.err != nil {
		return f.err
	}
	i := f.NextMember()
	if i < 0 {
		return nil // idle: nothing queued anywhere
	}
	if err := f.members[i].eng.ProcessNextEvent(); err != nil {
		return f.fail(fmt.Errorf("federation: member %s: %w", f.members[i].name, err))
	}
	if f.validate {
		if err := f.checkOwnership(); err != nil {
			return f.fail(err)
		}
	}
	return nil
}

// Digest folds every member's chained per-round schedule digest, in
// member order, into one federation digest. Two federations that
// routed and scheduled identically have identical digests; a
// federation of one has exactly its single engine's digest.
func (f *Federation) Digest() uint64 {
	if len(f.members) == 1 {
		return f.members[0].eng.Digest()
	}
	var d uint64
	for _, m := range f.members {
		d = d*1099511628211 + m.eng.Digest()
	}
	return d
}

// MemberReport is one member's share of a federation report.
type MemberReport struct {
	Name   string
	Report *metrics.Report
}

// Report is the result of Federation.Finish: the per-member reports
// plus a merged cluster-wide view.
type Report struct {
	// Members holds one finalized report per member, in member order.
	Members []MemberReport
	// Merged aggregates the members into one report: concatenated job
	// results, summed GPU-seconds and fault counters, max makespan.
	// Its Rounds is the total of member rounds (members tick
	// independently), and its occupancy time series is left empty —
	// per-member series live in Members.
	Merged *metrics.Report
}

// Finish finalizes every member engine and returns the federation
// report. Like Engine.Finish it is not terminal: more jobs may be
// submitted and processed afterwards, and Finish called again.
func (f *Federation) Finish() (*Report, error) {
	if f.err != nil {
		return nil, f.err
	}
	rep := &Report{}
	for _, m := range f.members {
		r, err := m.eng.Finish()
		if err != nil {
			return nil, f.fail(fmt.Errorf("federation: member %s: %w", m.name, err))
		}
		rep.Members = append(rep.Members, MemberReport{Name: m.name, Report: r})
	}
	if f.validate {
		if err := f.CheckInvariants(); err != nil {
			return nil, f.fail(err)
		}
	}
	rep.Merged = f.mergeReports(rep.Members)
	return rep, nil
}

// mergeReports folds the member reports into one cluster-wide report.
func (f *Federation) mergeReports(members []MemberReport) *metrics.Report {
	merged := &metrics.Report{
		Scheduler: fmt.Sprintf("federation-%d/%s", len(f.members), f.router.Name()),
	}
	for _, mr := range members {
		r := mr.Report
		merged.Jobs = append(merged.Jobs, r.Jobs...)
		if r.Makespan > merged.Makespan {
			merged.Makespan = r.Makespan
		}
		merged.BusyGPUSeconds += r.BusyGPUSeconds
		merged.HeldGPUSeconds += r.HeldGPUSeconds
		merged.TotalGPUs += r.TotalGPUs
		merged.Rounds += r.Rounds
		merged.JobRoundAllocs += r.JobRoundAllocs
		merged.JobRoundReallocs += r.JobRoundReallocs
		merged.DecisionTime += r.DecisionTime
		merged.Decisions += r.Decisions
		merged.Faults.NodeDown += r.Faults.NodeDown
		merged.Faults.NodeUp += r.Faults.NodeUp
		merged.Faults.Recoveries += r.Faults.Recoveries
		merged.Faults.LostIterations += r.Faults.LostIterations
	}
	merged.SortJobsByID()
	return merged
}

// checkOwnership is the cheap per-event federation invariant: every
// job the front door accepted is known to exactly its owning member —
// no job lost by its owner, none duplicated into a second member.
// Proving both for every job also proves job-count conservation: the
// per-member lifecycle tallies sum to the accepted total.
func (f *Federation) checkOwnership() error {
	for _, j := range f.jobs {
		own := f.owner[j.ID]
		for i, m := range f.members {
			_, known := m.eng.Phase(j.ID)
			if i == own && !known {
				return fmt.Errorf("federation: invariant: job %d lost by its owner %s", j.ID, m.name)
			}
			if i != own && known {
				return fmt.Errorf("federation: invariant: job %d owned by %s but also known to %s",
					j.ID, f.members[own].name, m.name)
			}
		}
	}
	return nil
}

// CheckInvariants runs the full federation-level audit against fresh
// member snapshots:
//
//   - ownership uniqueness and job-count conservation (checkOwnership);
//   - per-job iteration bounds: every active job's Remaining lies in
//     [0, TotalIters];
//   - global iteration conservation: the completed work across all
//     members (finished jobs' iterations plus active jobs' attained
//     iterations) never exceeds the total work the front door admitted
//     and — absent cancellations, which may retire partial work — never
//     decreases between audits.
//
// Finish runs it automatically when every member validates; tests may
// call it between steps.
func (f *Federation) CheckInvariants() error {
	if err := f.checkOwnership(); err != nil {
		return err
	}
	totalIters := 0.0
	for _, j := range f.jobs {
		totalIters += j.TotalIters()
	}
	work := 0.0
	const tol = 1e-6
	for _, m := range f.members {
		snap := m.eng.Snapshot()
		for _, js := range snap.Active {
			if js.Remaining < -tol || js.Remaining > js.TotalIters*(1+tol)+tol {
				return fmt.Errorf("federation: invariant: member %s job %d remaining %v outside [0, %v]",
					m.name, js.ID, js.Remaining, js.TotalIters)
			}
			work += js.TotalIters - js.Remaining
		}
		for _, jr := range snap.Report.Jobs {
			work += jr.TotalIters
		}
	}
	if work > totalIters*(1+tol)+tol {
		return fmt.Errorf("federation: invariant: completed work %v exceeds admitted work %v",
			work, totalIters)
	}
	if !f.cancelSeen && work < f.lastWork-tol {
		return fmt.Errorf("federation: invariant: completed work regressed %v -> %v with no cancellations",
			f.lastWork, work)
	}
	f.lastWork = work
	f.cancelSeen = false
	return nil
}
