// Package invariant is the scheduler correctness oracle: it validates
// every simulation round and the final report against the paper's model
// P1, independently of the bookkeeping the simulator and the schedulers
// do for themselves.
//
// The checked properties are exactly the constraints the paper's
// guarantees rest on:
//
//   - capacity (1c/1d): the round's joint allocation never exceeds any
//     (node, accelerator type) capacity, never names an invalid node or
//     type, and never lands on a node the schedulers saw as down;
//   - gang all-or-nothing (1e): a job holds exactly Workers devices or
//     none, and only devices of types it can use (task counts can thus
//     never exceed the request);
//   - iteration conservation (1b): a job's remaining work only ever
//     decreases, and per round it decreases by exactly the bottleneck
//     throughput of its allocation times the progress window (zero for
//     unallocated or failure-killed rounds);
//   - dual price sanity: a scheduler exposing its price function (Hadar,
//     via PriceReporter) must keep 0 < Umin <= Umax per type and the
//     marginal price k_h^r monotone non-decreasing in utilization
//     (Eq. 5-7 — the property Theorem 2's charging argument needs);
//   - internal consistency: a scheduler exposing an inconsistency
//     counter (Scheduler.Inconsistencies) must keep it at zero;
//   - report consistency: finish >= start >= arrival, completion times
//     above the physical speed-of-light floor (all workers on the
//     fastest type on the fastest node), occupancy and utilization
//     within [0, 1], busy time bounded by held time, and per-round held
//     device counts within the cluster size.
//
// The checker is pure observation: it never mutates scheduler or
// simulator state. sim.Run drives it when Options.Validate is set;
// tests enable that via sim.ValidatedOptions so every simulated round
// in the suite is checked, while benchmarks keep it off (the checker
// costs nothing when disabled).
package invariant

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/cluster"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/metrics"
)

// Tol is the repository's shared floating-point tolerance: the relative
// epsilon for conservation and bound checks here, and the comparison
// epsilon anywhere price or utility values computed along different
// paths must be deemed equal. Exact ==/!= on such values is forbidden
// by repolint's floateq rule.
const Tol = 1e-6

// tol aliases Tol for the package-internal checks below.
const tol = Tol

// maxViolations caps how many violations a checker stores; further ones
// are counted but dropped, so a badly broken scheduler cannot flood
// memory.
const maxViolations = 64

// Violation is one broken invariant.
type Violation struct {
	// Round is the 0-based round index, or -1 for report-level checks.
	Round int
	// Rule names the invariant, e.g. "capacity", "gang", "conservation".
	Rule string
	// Detail is a human-readable description of the specific breakage.
	Detail string
}

// String renders the violation in one line.
func (v Violation) String() string {
	if v.Round < 0 {
		return fmt.Sprintf("report: %s: %s", v.Rule, v.Detail)
	}
	return fmt.Sprintf("round %d: %s: %s", v.Round, v.Rule, v.Detail)
}

// PriceReporter is implemented by schedulers that expose their
// per-round dual price function (Hadar). The checker uses it to verify
// the price bounds and the monotonicity Theorem 2 depends on.
type PriceReporter interface {
	// PriceBounds returns the most recent round's per-type utility
	// bounds U_min^r / U_max^r (Eq. 6-7), indexed by gpu.Type. Types no
	// active job can use report U_max = 0 and are skipped.
	PriceBounds() (umin, umax []float64)
	// PriceAt evaluates the most recent round's marginal price function
	// k^r (Eq. 5) for type t at the given utilization fraction in
	// [0, 1].
	PriceAt(t gpu.Type, utilization float64) float64
}

// InconsistencyCounter is implemented by schedulers that count internal
// allocation inconsistencies (core.Scheduler.Inconsistencies). The
// checker flags any growth: a correct scheduler never produces a
// decision that does not fit the free state it priced the decision
// against.
type InconsistencyCounter interface {
	Inconsistencies() int
}

// JobRound is one job's observed state across a single round.
type JobRound struct {
	// Job is the immutable description.
	Job *job.Job
	// Alloc is the allocation the scheduler granted this round (nil or
	// empty when paused).
	Alloc cluster.Alloc
	// RemainingBefore and RemainingAfter bracket the round's progress
	// accounting (training iterations outstanding).
	RemainingBefore float64
	RemainingAfter  float64
	// Window is the portion of the round (seconds) in which the job
	// could make progress: round length minus its checkpoint stall.
	Window float64
	// Killed marks a round whose progress a mid-round node failure
	// wiped out: the job held devices but conserved no iterations.
	Killed bool
}

// Round is everything the checker observes about one scheduling round.
type Round struct {
	// Index is the 0-based round number.
	Index int
	// Now is the round's start time in seconds.
	Now float64
	// Length is the round length in seconds.
	Length float64
	// Down is the set of node IDs the schedulers saw with zero
	// capacity this round (may be nil).
	Down map[int]bool
	// Jobs holds one observation per active job.
	Jobs []JobRound
	// Scheduler is the policy under test; when it additionally
	// implements PriceReporter or InconsistencyCounter those checks
	// run too. May be nil.
	Scheduler any
	// Rate returns the progress rate (iterations/second) of a job
	// under an allocation — the simulator's own bottleneck model
	// (sched.Rate against the full cluster). Must be non-nil when
	// Jobs is non-empty.
	Rate func(j *job.Job, a cluster.Alloc) float64
}

// Checker accumulates violations across the rounds and final report of
// one simulation run. It is not safe for concurrent use.
type Checker struct {
	c        *cluster.Cluster
	maxSpeed float64

	lastInconsistencies int
	violations          []Violation
	dropped             int

	// Joint capacity check: used counts the round's devices per
	// (node, type) cell, capacity is the cluster's capacity in the same
	// flat layout, and touched lists, once each, the cells the round's
	// placements used, the only cells that can exceed their capacity.
	used     []int
	capacity []int
	touched  []int
}

// NewChecker builds a checker for one run over the given cluster (the
// full cluster: failure handling is expressed through Round.Down, not
// by shrinking capacities).
func NewChecker(c *cluster.Cluster) *Checker {
	k := &Checker{c: c, maxSpeed: 1}
	for _, n := range c.Nodes() {
		if n.Speed > k.maxSpeed {
			k.maxSpeed = n.Speed
		}
	}
	stride := int(gpu.NumTypes)
	k.used = make([]int, c.NumNodes()*stride)
	k.capacity = make([]int, len(k.used))
	for cell := range k.capacity {
		k.capacity[cell] = c.Capacity(cell/stride, gpu.Type(cell%stride))
	}
	return k
}

// violate records one violation, dropping beyond the cap.
func (k *Checker) violate(round int, rule, format string, args ...any) {
	if len(k.violations) >= maxViolations {
		k.dropped++
		return
	}
	k.violations = append(k.violations, Violation{
		Round: round, Rule: rule, Detail: fmt.Sprintf(format, args...),
	})
}

// Err returns nil when no invariant was violated, otherwise an error
// describing the first violation and the total count.
func (k *Checker) Err() error {
	if len(k.violations) == 0 {
		return nil
	}
	n := len(k.violations) + k.dropped
	if n == 1 {
		return fmt.Errorf("invariant: %s", k.violations[0])
	}
	return fmt.Errorf("invariant: %d violations, first: %s", n, k.violations[0])
}

// CheckRound validates one round's joint decision and progress
// accounting. Violations accumulate; read them with Err.
func (k *Checker) CheckRound(r Round) {
	k.touched = k.touched[:0]
	stride := int(gpu.NumTypes)
	for _, jr := range r.Jobs {
		w := jr.Alloc.Workers()
		structurallyValid := true
		// Gang all-or-nothing (1e); w > Workers also violates the
		// task-count bound of the request.
		if w != 0 && w != jr.Job.Workers {
			k.violate(r.Index, "gang", "%v holds %d of %d workers", jr.Job, w, jr.Job.Workers)
		}
		for _, p := range jr.Alloc {
			if p.Count == 0 {
				continue
			}
			if p.Count < 0 {
				k.violate(r.Index, "capacity", "%v holds negative count %d on node %d", jr.Job, p.Count, p.Node)
				structurallyValid = false
				continue
			}
			if p.Node < 0 || p.Node >= k.c.NumNodes() || !p.Type.Valid() {
				k.violate(r.Index, "capacity", "%v placed on invalid (node %d, type %v)", jr.Job, p.Node, p.Type)
				structurallyValid = false
				continue
			}
			if jr.Job.Speed(p.Type) <= 0 {
				k.violate(r.Index, "usable-type", "%v placed on unusable type %v", jr.Job, p.Type)
			}
			if r.Down[p.Node] {
				k.violate(r.Index, "down-node", "%v placed on down node %d", jr.Job, p.Node)
			}
			cell := p.Node*stride + int(p.Type)
			if k.used[cell] == 0 {
				k.touched = append(k.touched, cell)
			}
			k.used[cell] += p.Count
		}
		// The rate model cannot be evaluated on a structurally invalid
		// placement (already flagged above); skip the exact-progress check.
		if structurallyValid {
			k.checkConservation(r, jr, w)
		}
	}
	// Joint capacity (1c/1d) across all jobs of the round, in ascending
	// cell order; an untouched cell holds nothing and cannot exceed its
	// capacity. Resetting the touched cells readies used for the next
	// round.
	slices.Sort(k.touched)
	for _, cell := range k.touched {
		if used, cap := k.used[cell], k.capacity[cell]; used > cap {
			k.violate(r.Index, "capacity", "node %d %v: %d allocated of %d", cell/stride, gpu.Type(cell%stride), used, cap)
		}
		k.used[cell] = 0
	}
	if pr, ok := r.Scheduler.(PriceReporter); ok {
		k.checkPrices(r.Index, pr)
	}
	if ic, ok := r.Scheduler.(InconsistencyCounter); ok {
		if n := ic.Inconsistencies(); n > k.lastInconsistencies {
			k.violate(r.Index, "inconsistency",
				"scheduler swallowed %d internal allocation failures", n-k.lastInconsistencies)
			k.lastInconsistencies = n
		}
	}
}

// checkConservation verifies iteration conservation: remaining work
// never grows, and shrinks by exactly min(remaining, bottleneck rate x
// window) — zero when the job held nothing or a failure killed the
// round.
func (k *Checker) checkConservation(r Round, jr JobRound, w int) {
	progressed := jr.RemainingBefore - jr.RemainingAfter
	scale := tol * (1 + math.Abs(jr.RemainingBefore))
	if jr.RemainingAfter < -scale {
		k.violate(r.Index, "conservation", "%v remaining went negative: %v", jr.Job, jr.RemainingAfter)
		return
	}
	if progressed < -scale {
		k.violate(r.Index, "conservation", "%v remaining grew from %v to %v",
			jr.Job, jr.RemainingBefore, jr.RemainingAfter)
		return
	}
	want := 0.0
	if w > 0 && !jr.Killed {
		if r.Rate == nil {
			k.violate(r.Index, "conservation", "no rate model provided for %v", jr.Job)
			return
		}
		want = r.Rate(jr.Job, jr.Alloc) * jr.Window
		if want > jr.RemainingBefore {
			want = jr.RemainingBefore
		}
	}
	if math.Abs(progressed-want) > tol*(1+want) {
		k.violate(r.Index, "conservation",
			"%v progressed %v iterations, bottleneck model allows exactly %v (window %vs)",
			jr.Job, progressed, want, jr.Window)
	}
}

// checkPrices verifies the reported dual price function: positive
// ordered bounds and monotone non-decreasing prices in utilization,
// sampled across [0, 1].
func (k *Checker) checkPrices(round int, pr PriceReporter) {
	umin, umax := pr.PriceBounds()
	if len(umin) != len(umax) {
		k.violate(round, "price", "bounds length mismatch: %d vs %d", len(umin), len(umax))
		return
	}
	for ti := range umax {
		t := gpu.Type(ti)
		if umax[ti] <= 0 {
			continue // no active job can use this type this round
		}
		if umin[ti] <= 0 || math.IsInf(umin[ti], 0) || math.IsNaN(umin[ti]) {
			k.violate(round, "price", "%v: Umin %v not positive finite", t, umin[ti])
			continue
		}
		if umin[ti] > umax[ti]*(1+tol) {
			k.violate(round, "price", "%v: Umin %v above Umax %v", t, umin[ti], umax[ti])
			continue
		}
		prev := math.Inf(-1)
		for s := 0; s <= 10; s++ {
			frac := float64(s) / 10
			p := pr.PriceAt(t, frac)
			if math.IsNaN(p) || p < 0 {
				k.violate(round, "price", "%v: price %v at utilization %v", t, p, frac)
				break
			}
			if p < prev*(1-tol) {
				k.violate(round, "price", "%v: price fell from %v to %v at utilization %v",
					t, prev, p, frac)
				break
			}
			if p < umin[ti]*(1-tol) || p > umax[ti]*(1+tol) {
				k.violate(round, "price", "%v: price %v at utilization %v outside [%v, %v]",
					t, p, frac, umin[ti], umax[ti])
				break
			}
			prev = p
		}
	}
}

// CheckReport validates the final metrics report: per-job timeline
// ordering, the physical completion-time floor, and the aggregate
// occupancy/utilization bounds. jobs is the trace the run consumed (by
// ID), used to bound each result against its job's fastest
// configuration.
func (k *Checker) CheckReport(rep *metrics.Report, jobs []*job.Job) {
	byID := make(map[int]*job.Job, len(jobs))
	for _, j := range jobs {
		byID[j.ID] = j
	}
	if len(rep.Jobs) > len(jobs) {
		k.violate(-1, "report", "%d results for %d jobs", len(rep.Jobs), len(jobs))
	}
	seen := make(map[int]bool, len(rep.Jobs))
	maxFinish := 0.0
	for _, jr := range rep.Jobs {
		j, ok := byID[jr.ID]
		if !ok {
			k.violate(-1, "report", "result for unknown job %d", jr.ID)
			continue
		}
		if seen[jr.ID] {
			k.violate(-1, "report", "duplicate result for job %d", jr.ID)
			continue
		}
		seen[jr.ID] = true
		if jr.Start < jr.Arrival-tol || jr.Finish < jr.Start-tol {
			k.violate(-1, "report", "job %d timeline broken: arrival %v, start %v, finish %v",
				jr.ID, jr.Arrival, jr.Start, jr.Finish)
			continue
		}
		// Physical floor: the run span cannot beat every worker on the
		// job's fastest type on the cluster's fastest node (checkpoint
		// stalls only add to it). The 1/n-share IsolatedDuration is NOT
		// a valid floor — an uncontended job legitimately beats its
		// fair-share runtime (FTF < 1) — so the oracle uses the
		// speed-of-light bound instead.
		if _, best, ok := j.BestType(); ok && best > 0 {
			floor := j.TotalIters() / (float64(j.Workers) * best * k.maxSpeed)
			if span := jr.Finish - jr.Start; span < floor*(1-tol) {
				k.violate(-1, "report", "job %d ran %v iterations in %vs, physical floor %vs",
					jr.ID, j.TotalIters(), span, floor)
			}
		}
		if jr.Finish > maxFinish {
			maxFinish = jr.Finish
		}
	}
	if rep.Makespan < maxFinish*(1-tol) {
		k.violate(-1, "report", "makespan %v below latest finish %v", rep.Makespan, maxFinish)
	}
	if occ := rep.Occupancy(); occ < 0 || occ > 1+tol {
		k.violate(-1, "report", "occupancy %v outside [0, 1]", occ)
	}
	if u := rep.Utilization(); u < 0 || u > 1+tol {
		k.violate(-1, "report", "utilization %v outside [0, 1]", u)
	}
	if rep.BusyGPUSeconds > rep.HeldGPUSeconds*(1+tol) {
		k.violate(-1, "report", "busy GPU-seconds %v exceed held %v",
			rep.BusyGPUSeconds, rep.HeldGPUSeconds)
	}
	for i, held := range rep.RoundHeld {
		if held < 0 || held > rep.TotalGPUs {
			k.violate(-1, "report", "round %d held %d devices of %d", i, held, rep.TotalGPUs)
		}
	}
}
