package sim

import (
	"repro/internal/metrics"
)

// JobSnapshot is the frozen state of one unfinished job at snapshot
// time. Every field is a value: holding a JobSnapshot never aliases
// engine-owned memory.
type JobSnapshot struct {
	ID      int     `json:"id"`
	Model   string  `json:"model"`
	Workers int     `json:"workers"`
	Arrival float64 `json:"arrival_s"`
	// Remaining and TotalIters track training progress.
	Remaining  float64 `json:"remaining_iters"`
	TotalIters float64 `json:"total_iters"`
	// Running reports whether the job held an allocation in the last
	// round; Alloc is that allocation (nil when paused or pending).
	Running bool   `json:"running"`
	Alloc   string `json:"alloc,omitempty"`
	// Started and StartTime record the first allocation.
	Started       bool    `json:"started"`
	StartTime     float64 `json:"start_s"`
	Reallocations int     `json:"reallocations"`
	// Phase is the lifecycle stage ("pending" or "active" — terminal
	// jobs appear in the report, not the snapshot).
	Phase string `json:"phase"`
}

// Snapshot is an immutable point-in-time view of an Engine, built by
// share-on-publish: what changes in place (the active jobs, the
// pending/active phases) is copied, and what only ever grows is shared
// — the report's slices by capacity-clamped prefix, the terminal jobs
// through an index that is never written after it is built. A publish
// therefore costs O(live jobs), not O(history), and a published
// *Snapshot can still be read from any goroutine without
// synchronization while the engine keeps stepping. A long-lived service
// publishes one per round through an atomic pointer; dashboard and API
// readers therefore never contend with the scheduler.
type Snapshot struct {
	// Now is the simulated time (seconds); Round the next round index.
	Now   float64 `json:"now_s"`
	Round int     `json:"round"`
	// Scheduler is the policy name.
	Scheduler string `json:"scheduler"`
	// TotalGPUs is the cluster size; HeldGPUs the devices held in the
	// most recent executed round (0 before the first round).
	TotalGPUs int `json:"total_gpus"`
	HeldGPUs  int `json:"held_gpus"`
	// Pending counts submitted jobs not yet admitted at a boundary;
	// Active lists every admitted, unfinished job; Completed and
	// Cancelled count terminal jobs.
	Pending   int           `json:"pending"`
	Active    []JobSnapshot `json:"active"`
	Completed int           `json:"completed"`
	Cancelled int           `json:"cancelled"`
	// Digest is the engine's chained per-round schedule digest (see
	// Engine.Digest); the crash-recovery chaos harness compares it
	// against an uninterrupted replay of the journal.
	Digest uint64 `json:"digest"`
	// Phases maps every submitted job ID to its lifecycle stage
	// ("pending", "active", "finished", "cancelled"), so status queries
	// resolve against the snapshot instead of the engine; nil before the
	// first submission. It is not encoded: it grows with every job ever
	// submitted, and each job's phase is one lookup away.
	Phases *PhaseView `json:"-"`
	// Report is a view of the metrics accumulated so far (completed
	// jobs in completion order, utilization series, fault counters).
	Report *metrics.Report `json:"-"`
}

// Result returns the finished job's result, or nil when the job has not
// finished (or was cancelled, or never submitted).
func (s *Snapshot) Result(id int) *metrics.JobResult {
	if s.Phases == nil {
		return nil
	}
	if e, ok := s.Phases.done.get(id); ok && e.ref != cancelledRef {
		return &s.Report.Jobs[e.ref]
	}
	return nil
}

// Snapshot publishes an immutable view of the engine's current state.
// It must be called from the goroutine driving the engine (between
// steps); the returned value may then be shared freely.
func (e *Engine) Snapshot() *Snapshot {
	snap := &Snapshot{
		Now:       e.now,
		Round:     e.round,
		Scheduler: e.s.Name(),
		TotalGPUs: e.totalGPUs,
		Pending:   e.pendingArrivals,
		Completed: len(e.report.Jobs),
		Cancelled: e.cancelled,
		Digest:    e.digest,
		HeldGPUs:  e.HeldGPUs(),
		Report:    e.report.View(),
	}
	if len(e.all) > 0 {
		snap.Phases = newPhaseView(e.live, e.done, e.maxID)
	}
	snap.Active = make([]JobSnapshot, 0, len(e.active))
	for _, st := range e.active {
		js := JobSnapshot{
			ID:            st.Job.ID,
			Model:         st.Job.Model,
			Workers:       st.Job.Workers,
			Arrival:       st.Job.Arrival,
			Remaining:     st.Remaining,
			TotalIters:    st.Job.TotalIters(),
			Running:       st.Running(),
			Started:       st.Started,
			StartTime:     st.StartTime,
			Reallocations: st.Reallocations,
			Phase:         JobActive.String(),
		}
		if st.Running() {
			js.Alloc = st.Alloc.String()
		}
		snap.Active = append(snap.Active, js)
	}
	return snap
}
