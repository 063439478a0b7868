// Package metrics computes the evaluation metrics reported in the Hadar
// paper: average/median/min/max job completion time (JCT), makespan,
// queuing delay, cluster-wide GPU utilization, and finish-time fairness
// (FTF, from Themis).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"repro/internal/job"
	"repro/internal/stats"
)

// JobResult records one completed job's timeline.
type JobResult struct {
	ID      int
	Model   string
	Workers int
	// Arrival, Start and Finish are seconds from trace start. Start is
	// the time of the first allocation.
	Arrival float64
	Start   float64
	Finish  float64
	// TotalIters is the work completed (E_j * N_j).
	TotalIters float64
	// IsolatedDuration is the analytic runtime the job would need with a
	// 1/n share of the cluster on its best accelerator type (see
	// IsolatedDuration); the FTF denominator.
	IsolatedDuration float64
	// Reallocations counts rounds in which the job's allocation changed
	// while it kept running (checkpoint-restart events).
	Reallocations int
}

// JCT returns the job completion time f_j - a_j.
func (r JobResult) JCT() float64 { return r.Finish - r.Arrival }

// QueueDelay returns the time the job waited before its first
// allocation.
func (r JobResult) QueueDelay() float64 { return r.Start - r.Arrival }

// FTF returns the finish-time fairness ratio: JCT divided by the
// isolated (1/n cluster share) duration. Values near or below 1 are
// fair; large values indicate the job was starved relative to an equal
// share.
func (r JobResult) FTF() float64 {
	if r.IsolatedDuration <= 0 {
		return math.Inf(1)
	}
	return r.JCT() / r.IsolatedDuration
}

// AppendJSON appends to b the JSON encoding/json writes for r: every
// field under its Go name, in declaration order, strings HTML-escaped.
// Like encoding/json it fails on a non-finite float. Checkpoints encode
// the report's job history this way.
func (r JobResult) AppendJSON(b []byte) ([]byte, error) {
	for _, x := range [...]float64{r.Arrival, r.Start, r.Finish, r.TotalIters, r.IsolatedDuration} {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return b, fmt.Errorf("metrics: job %d: unsupported value %v", r.ID, x)
		}
	}
	b = strconv.AppendInt(append(b, `{"ID":`...), int64(r.ID), 10)
	b = job.AppendJSONString(append(b, `,"Model":`...), r.Model)
	b = strconv.AppendInt(append(b, `,"Workers":`...), int64(r.Workers), 10)
	b = job.AppendJSONFloat(append(b, `,"Arrival":`...), r.Arrival)
	b = job.AppendJSONFloat(append(b, `,"Start":`...), r.Start)
	b = job.AppendJSONFloat(append(b, `,"Finish":`...), r.Finish)
	b = job.AppendJSONFloat(append(b, `,"TotalIters":`...), r.TotalIters)
	b = job.AppendJSONFloat(append(b, `,"IsolatedDuration":`...), r.IsolatedDuration)
	b = strconv.AppendInt(append(b, `,"Reallocations":`...), int64(r.Reallocations), 10)
	return append(b, '}'), nil
}

// IsolatedDuration computes the FTF denominator for a job: the runtime
// on its best accelerator type if the cluster were statically divided
// among n jobs. A job whose gang W exceeds its 1/n GPU share is assumed
// to time-slice, stretching its runtime by W*n/totalGPUs; a job within
// its share runs unimpeded.
func IsolatedDuration(totalIters float64, workers int, bestThroughput float64, n, totalGPUs int) float64 {
	if bestThroughput <= 0 || workers <= 0 || totalGPUs <= 0 || n <= 0 {
		return math.Inf(1)
	}
	base := totalIters / (float64(workers) * bestThroughput)
	stretch := float64(workers) * float64(n) / float64(totalGPUs)
	if stretch < 1 {
		stretch = 1
	}
	return base * stretch
}

// FaultStats counts fault-tolerance events observed during a run. The
// simulator fills in the outage-level counters (node transitions, lost
// work, recoveries). All counters stay zero on a fault-free run, so
// reports from healthy runs are unchanged by their presence.
type FaultStats struct {
	// RPCRetries and RPCTimeouts are always zero: nothing in the
	// program fills them, and nothing reads them (Any, String, the
	// dashboard and the federation's merge skip them). They stay
	// because they are part of the report encoded in engine
	// checkpoints, so dropping them is a checkpoint format change.
	RPCRetries  int
	RPCTimeouts int
	// NodeDown and NodeUp count node outage begin/end transitions.
	NodeDown int
	NodeUp   int
	// Recoveries counts job-rounds rolled back because a worker holding
	// part of the job's gang failed mid-round.
	Recoveries int
	// LostIterations sums training iterations discarded by failures:
	// the killed round's forgone work.
	LostIterations float64
}

// Any reports whether any fault counter is non-zero.
func (f FaultStats) Any() bool {
	return f.NodeDown != 0 || f.NodeUp != 0 || f.Recoveries != 0 || f.LostIterations > 0
}

// String renders the counters in one line.
func (f FaultStats) String() string {
	return fmt.Sprintf("down=%d up=%d recoveries=%d lostIters=%.0f",
		f.NodeDown, f.NodeUp, f.Recoveries, f.LostIterations)
}

// Report aggregates one simulation run.
type Report struct {
	// Scheduler is the policy name.
	Scheduler string
	// Jobs holds one result per completed job. On a live engine's report
	// it is append-only, in completion order: published views share it by
	// capacity-clamped prefix (View), so no element is ever rewritten.
	Jobs []JobResult
	// Makespan is the latest finish time (max_j f_j).
	Makespan float64
	// BusyGPUSeconds accumulates workers x active seconds across all
	// jobs (checkpoint stalls and post-completion round tails excluded).
	BusyGPUSeconds float64
	// HeldGPUSeconds accumulates workers x round length for every
	// allocated job-round: the GPU time reserved by jobs, including
	// checkpoint stalls and the idle tail of a job's final round.
	HeldGPUSeconds float64
	// TotalGPUs is the cluster size.
	TotalGPUs int
	// Rounds is the number of scheduling rounds executed.
	Rounds int
	// JobRoundAllocs counts (job, round) pairs with an allocation;
	// JobRoundReallocs counts those whose allocation changed from the
	// previous round. Their ratio is the paper's "30% of scheduling
	// rounds require a change in allocation for an average job".
	JobRoundAllocs   int
	JobRoundReallocs int
	// DecisionTime is the cumulative wall time spent inside
	// Scheduler.Schedule, over Decisions calls (Fig. 7).
	DecisionTime time.Duration
	Decisions    int
	// Faults counts failure-handling events (retries, outages,
	// recoveries, lost work); all zero on a fault-free run.
	Faults FaultStats
	// RoundHeld records, per executed round, how many workers held
	// devices — the cluster occupancy time series. Append-only, shared
	// with published views like Jobs.
	RoundHeld []int
	// RoundStarts records each round's start time, aligned with
	// RoundHeld (rounds may be skipped while the cluster idles between
	// arrivals). Append-only, shared with published views like Jobs.
	RoundStarts []float64
}

// OccupancyUntil returns average held-GPU occupancy over rounds starting
// before time t.
func (r *Report) OccupancyUntil(t float64) float64 {
	if r.TotalGPUs == 0 {
		return 0
	}
	sum, n := 0.0, 0
	for i, held := range r.RoundHeld {
		if i < len(r.RoundStarts) && r.RoundStarts[i] >= t {
			break
		}
		sum += float64(held)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / (float64(n) * float64(r.TotalGPUs))
}

// jcts returns all completion times.
func (r *Report) jcts() []float64 {
	out := make([]float64, len(r.Jobs))
	for i, j := range r.Jobs {
		out[i] = j.JCT()
	}
	return out
}

// AvgJCT returns the mean job completion time in seconds.
func (r *Report) AvgJCT() float64 { return stats.Mean(r.jcts()) }

// MedianJCT returns the median job completion time in seconds.
func (r *Report) MedianJCT() float64 { return stats.Median(r.jcts()) }

// MinJCT and MaxJCT bound the completion times (Fig. 8's shaded range).
func (r *Report) MinJCT() float64 { return stats.Min(r.jcts()) }

// MaxJCT returns the largest completion time.
func (r *Report) MaxJCT() float64 { return stats.Max(r.jcts()) }

// AvgQueueDelay returns the mean wait before first allocation.
func (r *Report) AvgQueueDelay() float64 {
	out := make([]float64, len(r.Jobs))
	for i, j := range r.Jobs {
		out[i] = j.QueueDelay()
	}
	return stats.Mean(out)
}

// Occupancy returns busy GPU-seconds over total GPU-seconds until the
// makespan: how much of the whole cluster-time did useful work.
func (r *Report) Occupancy() float64 {
	if r.Makespan <= 0 || r.TotalGPUs == 0 {
		return 0
	}
	return r.BusyGPUSeconds / (float64(r.TotalGPUs) * r.Makespan)
}

// Utilization returns busy GPU-seconds over held GPU-seconds: the
// fraction of job run-time during which the GPUs actually computed
// (the paper's Fig. 4/Fig. 10 metric). Non-preemptive schedulers score
// highest here because they never pay checkpoint-restart stalls.
func (r *Report) Utilization() float64 {
	if r.HeldGPUSeconds <= 0 {
		return 0
	}
	return r.BusyGPUSeconds / r.HeldGPUSeconds
}

// FTFs returns the finish-time fairness ratio of every job.
func (r *Report) FTFs() []float64 {
	out := make([]float64, len(r.Jobs))
	for i, j := range r.Jobs {
		out[i] = j.FTF()
	}
	return out
}

// AvgFTF returns the mean finish-time fairness (Fig. 5).
func (r *Report) AvgFTF() float64 { return stats.Mean(r.FTFs()) }

// MaxFTF returns the worst-case fairness ratio.
func (r *Report) MaxFTF() float64 { return stats.Max(r.FTFs()) }

// ReallocationFraction returns the fraction of allocated job-rounds in
// which the allocation changed (the paper reports ~30% for Hadar).
func (r *Report) ReallocationFraction() float64 {
	if r.JobRoundAllocs == 0 {
		return 0
	}
	return float64(r.JobRoundReallocs) / float64(r.JobRoundAllocs)
}

// AvgDecisionTime returns the mean wall time per Schedule call (Fig. 7).
func (r *Report) AvgDecisionTime() time.Duration {
	if r.Decisions == 0 {
		return 0
	}
	return r.DecisionTime / time.Duration(r.Decisions)
}

// CompletionCDF returns the cumulative fraction of jobs finished by each
// completion instant (the Fig. 3 curves), in ascending time order.
func (r *Report) CompletionCDF() []stats.CDFPoint {
	finishes := make([]float64, len(r.Jobs))
	for i, j := range r.Jobs {
		finishes[i] = j.Finish
	}
	return stats.CDF(finishes)
}

// CompletionAt returns the fraction of jobs finished by time t.
func (r *Report) CompletionAt(t float64) float64 {
	n := 0
	for _, j := range r.Jobs {
		if j.Finish <= t {
			n++
		}
	}
	if len(r.Jobs) == 0 {
		return 0
	}
	return float64(n) / float64(len(r.Jobs))
}

// SortJobsByID orders the results deterministically, in place: for a
// report its caller built and still owns alone. A report whose slices
// views share (a live engine's) is sorted through SortedByID instead.
func (r *Report) SortJobsByID() {
	sort.Slice(r.Jobs, func(a, b int) bool { return r.Jobs[a].ID < r.Jobs[b].ID })
}

// View returns a shallow copy that shares r's three append-only slices
// by capacity-clamped prefix: the view sees exactly the elements present
// now, an append through r lands beyond the view's length (or in a new
// array), and an append through the view must reallocate, so neither
// side can write what the other reads. It costs one small allocation
// however long the history is, which is what makes publishing a
// snapshot every round affordable.
func (r *Report) View() *Report {
	v := *r
	v.Jobs = r.Jobs[:len(r.Jobs):len(r.Jobs)]
	v.RoundHeld = r.RoundHeld[:len(r.RoundHeld):len(r.RoundHeld)]
	v.RoundStarts = r.RoundStarts[:len(r.RoundStarts):len(r.RoundStarts)]
	return &v
}

// SortedByID returns a view of r whose Jobs are an exact-size copy in
// ID order, leaving r's own completion order untouched.
func (r *Report) SortedByID() *Report {
	v := r.View()
	v.Jobs = make([]JobResult, len(r.Jobs))
	copy(v.Jobs, r.Jobs)
	v.SortJobsByID()
	return v
}

// Clone returns a deep copy: the copy shares no slices with the
// original, so a snapshot of an in-progress run stays valid while the
// simulation keeps appending. JobResult and FaultStats are flat value
// types, so element copies are deep.
func (r *Report) Clone() *Report {
	c := *r
	c.Jobs = append([]JobResult(nil), r.Jobs...)
	c.RoundHeld = append([]int(nil), r.RoundHeld...)
	c.RoundStarts = append([]float64(nil), r.RoundStarts...)
	return &c
}

// String renders the headline numbers in one line.
func (r *Report) String() string {
	return fmt.Sprintf("%s: %d jobs, avgJCT=%.2fh medJCT=%.2fh makespan=%.2fh util=%.1f%% FTF=%.2f",
		r.Scheduler, len(r.Jobs), r.AvgJCT()/3600, r.MedianJCT()/3600,
		r.Makespan/3600, 100*r.Utilization(), r.AvgFTF())
}
