// Package sim implements the trace-driven, round-based cluster
// simulator used for the paper's evaluation. Time advances in scheduling
// rounds (6 minutes by default); at each round boundary the scheduler
// under test produces task-level allocations for all arrived, unfinished
// jobs, and the simulator advances every allocated job at its bottleneck
// throughput, charging checkpoint-restart overhead to jobs whose
// allocation changed.
//
// Resources move only at round boundaries (a job finishing mid-round
// holds its GPUs until the boundary, which is what makes the round
// length a performance knob, Fig. 9), but completion times are recorded
// at second granularity so JCT is not quantized.
package sim

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/sched"
)

// Options configures a simulation run.
type Options struct {
	// RoundLength is the scheduling interval in seconds (paper default:
	// 6 minutes).
	RoundLength float64
	// UseModelCosts selects the Table IV per-model checkpoint cost model
	// instead of the flat delay.
	UseModelCosts bool
	// FlatDelay is the checkpoint-restart stall charged to a job whose
	// allocation changed, when UseModelCosts is false. The paper's
	// simulator uses 10 s.
	FlatDelay float64
	// QuantizeCompletions records job finish times at the round boundary
	// instead of the exact second (ablation 1 in DESIGN.md).
	QuantizeCompletions bool
	// CheckpointContention models shared checkpoint storage: when
	// several reallocated jobs save/restore through the same node's SSD
	// in the same round, each job's stall is multiplied by the number of
	// jobs contending on its busiest node (the paper's prototype gives
	// every instance a ~1000 MiB/s SSD, so contention arises only
	// within a node).
	CheckpointContention bool
	// MaxRounds aborts a runaway simulation. 0 means a generous default.
	MaxRounds int
	// StallLimit aborts after this many consecutive rounds in which
	// active jobs exist but nothing is allocated (scheduler starvation
	// bug guard). 0 means a default of 5000 rounds.
	StallLimit int
	// Failures injects machine outages: while a node is down, the
	// schedulers see it with zero capacity, and any job allocated on it
	// when the outage begins loses that round's progress (work since
	// its last checkpoint) and must be re-placed.
	Failures []Failure
	// EventLog, when non-nil, receives one JSON line per simulation
	// event (arrivals, starts, reallocations, pauses, completions, node
	// outages). Parse with ReadEvents.
	EventLog io.Writer
	// Validate runs the correctness oracle (internal/invariant) on
	// every round's joint decision and on the final report: capacity,
	// gang, iteration-conservation, dual-price and report-consistency
	// invariants all hold or Run fails with the violation. Tests enable
	// it via ValidatedOptions; benchmarks leave it off (disabled, the
	// checker costs nothing).
	Validate bool
}

// Failure is one machine outage window [Start, End).
type Failure struct {
	Node  int
	Start float64
	End   float64
}

// downNodes returns the set of failed nodes overlapping the round
// [now, now+round).
func downNodes(failures []Failure, now, round float64) map[int]bool {
	var down map[int]bool
	for _, f := range failures {
		if f.Start < now+round && f.End > now {
			if down == nil {
				down = make(map[int]bool)
			}
			down[f.Node] = true
		}
	}
	return down
}

// DefaultOptions returns the paper's simulation settings.
func DefaultOptions() Options {
	return Options{
		RoundLength: checkpoint.RoundSeconds,
		FlatDelay:   checkpoint.DefaultDelay,
	}
}

// ValidatedOptions returns DefaultOptions with the invariant checker
// enabled. Tests simulate with it so every round is validated against
// the paper's model; benchmarks use DefaultOptions to measure the
// unchecked hot path.
func ValidatedOptions() Options {
	o := DefaultOptions()
	o.Validate = true
	return o
}

// normalize validates the options against a cluster of the given node
// count and fills in defaults.
func (o *Options) normalize(nodes int) error {
	// Every comparison below is false for NaN, so finiteness is checked
	// first: a NaN round would never end the run, an infinite one ends
	// it after one round, and a NaN window would never open.
	if !finite(o.RoundLength) || o.RoundLength <= 0 {
		return fmt.Errorf("sim: non-positive or non-finite round length %v", o.RoundLength)
	}
	if !finite(o.FlatDelay) || o.FlatDelay < 0 || o.FlatDelay >= o.RoundLength {
		return fmt.Errorf("sim: flat delay %v outside [0, round)", o.FlatDelay)
	}
	if o.MaxRounds == 0 {
		o.MaxRounds = 2_000_000
	}
	if o.StallLimit == 0 {
		o.StallLimit = 5000
	}
	for _, f := range o.Failures {
		if !finite(f.Start) || !finite(f.End) || f.End <= f.Start || f.Start < 0 || f.Node < 0 || f.Node >= nodes {
			return fmt.Errorf("sim: invalid failure window [%v, %v) on node %d of %d", f.Start, f.End, f.Node, nodes)
		}
	}
	return nil
}

// finite reports whether v is neither NaN nor infinite.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Run simulates the scheduler on the trace and returns the metrics
// report. It returns an error for malformed inputs or scheduler protocol
// violations (broken gang constraint, capacity overflow, allocation to
// unknown jobs).
//
// Run is a thin drive-to-completion wrapper over the steppable Engine:
// it submits every job of the trace up front, processes round
// boundaries until the event queue drains, and finalizes the report.
// Callers that need online arrivals, cancellation, or mid-run
// observation use the Engine directly.
func Run(c *cluster.Cluster, jobs []*job.Job, s sched.Scheduler, opts Options) (*metrics.Report, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("sim: empty trace")
	}
	eng, err := NewEngine(c, s, opts)
	if err != nil {
		return nil, err
	}
	// Submit in arrival order; the jobs slice is not modified. Ties on
	// arrival time break by ascending ID, and the event queue preserves
	// submission order among simultaneous events, so admission matches
	// the sorted-trace batch protocol exactly.
	ordered := append([]*job.Job(nil), jobs...)
	sort.SliceStable(ordered, func(i, k int) bool { return less(ordered[i], ordered[k]) })
	for _, j := range ordered {
		if err := eng.SubmitJob(j); err != nil {
			return nil, err
		}
	}
	for eng.HasPendingEvents() {
		if err := eng.ProcessNextEvent(); err != nil {
			return nil, err
		}
	}
	return eng.Finish()
}

// stallFor returns the checkpoint stall (seconds) at the start of a
// round for a job whose allocation did or did not change. "changed"
// includes the job's very first allocation (the initial model load).
func stallFor(model string, changed bool, opts Options) float64 {
	if opts.UseModelCosts {
		return checkpoint.Delay(model, changed)
	}
	if changed {
		return opts.FlatDelay
	}
	return 0
}

// horizon estimates the scheduling horizon T for the price bounds: the
// current time plus the serial worst-case runtime of all active jobs.
// Each job's worst rate is the last entry of its cached usable-type
// list, and d is Job.MaxDuration's expression over it.
func horizon(now float64, active []*sched.JobState, round float64) float64 {
	h := now + round
	for _, st := range active {
		j := st.Job
		types := st.UsableTypes()
		if len(types) == 0 || j.Workers == 0 {
			continue
		}
		d := j.TotalIters() / (float64(j.Workers) * j.Throughput[types[len(types)-1]])
		if math.IsInf(d, 1) {
			continue
		}
		// Scale the per-job worst case by its remaining fraction;
		// float64(…) keeps the sum unfused on every platform.
		frac := st.Remaining / j.TotalIters()
		h += float64(d * frac)
	}
	return h
}

func jobResult(st *sched.JobState, finish float64, n, totalGPUs int) metrics.JobResult {
	_, best, _ := st.Job.BestType()
	return metrics.JobResult{
		ID:         st.Job.ID,
		Model:      st.Job.Model,
		Workers:    st.Job.Workers,
		Arrival:    st.Job.Arrival,
		Start:      st.StartTime,
		Finish:     finish,
		TotalIters: st.Job.TotalIters(),
		IsolatedDuration: metrics.IsolatedDuration(
			st.Job.TotalIters(), st.Job.Workers, best, n, totalGPUs),
		Reallocations: st.Reallocations,
	}
}

func less(a, b *job.Job) bool {
	if a.Arrival < b.Arrival {
		return true
	}
	if a.Arrival > b.Arrival {
		return false
	}
	return a.ID < b.ID
}
