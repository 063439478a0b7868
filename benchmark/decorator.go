package benchmark

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/sched"
)

// placedJob is one allocation a scheduler returned, kept with its job
// so a probe can feed it back into sched.Validate and sched.Rate.
type placedJob struct {
	job   *job.Job
	alloc cluster.Alloc
}

// maxRecordedRounds bounds the rounds whose decisions the decorator
// keeps for the replay probes; beyond it every other kept round is
// dropped and the sampling stride doubles.
const maxRecordedRounds = 64

// timedScheduler decorates a sched.Scheduler: it times every Schedule
// call, counts what was offered and what was placed, and keeps a thin
// sample of rounds for the replay probes. The wrapped scheduler's map
// is returned unmodified, so the engine's digest is the same with and
// without the decorator.
type timedScheduler struct {
	inner   sched.Scheduler
	tr      *Tracer
	dpLimit int
	// parent is the ID of the sim.step span the next Schedule call runs
	// inside (-1 when the caller cannot see the step, as on the service
	// workloads). The stepping goroutine sets it; only that goroutine
	// calls Schedule.
	parent int

	callUS  []float64
	offered int
	placed  int
	dpCalls int

	stride int
	rounds [][]placedJob
}

func newTimedScheduler(inner sched.Scheduler, tr *Tracer, dpLimit int) *timedScheduler {
	return &timedScheduler{inner: inner, tr: tr, dpLimit: dpLimit, parent: -1, stride: 1}
}

// Name returns the wrapped scheduler's name: the engine stores it in
// checkpoints and reports.
func (t *timedScheduler) Name() string { return t.inner.Name() }

// Schedule times the wrapped call and passes its result through.
func (t *timedScheduler) Schedule(ctx *sched.Context) map[int]cluster.Alloc {
	//lint:ignore digesttaint the clock times the wrapped call; out is returned untouched, so no reading reaches the digest
	start := time.Now()
	out := t.inner.Schedule(ctx)
	//lint:ignore digesttaint as above: timing only, never part of the decision
	end := time.Now()
	t.tr.Add("core.schedule", t.parent, int64(ctx.Round), start, end)
	t.callUS = append(t.callUS, float64(end.Sub(start).Nanoseconds())/1e3)
	t.offered += len(ctx.Jobs)
	if len(ctx.Jobs) <= t.dpLimit {
		t.dpCalls++
	}
	for _, st := range ctx.Jobs {
		if out[st.Job.ID].Workers() > 0 {
			t.placed++
		}
	}
	if (len(t.callUS)-1)%t.stride == 0 {
		t.record(ctx, out)
	}
	return out
}

// record keeps a copy of this round's decisions in job order.
func (t *timedScheduler) record(ctx *sched.Context, out map[int]cluster.Alloc) {
	round := make([]placedJob, 0, len(out))
	for _, st := range ctx.Jobs {
		if a := out[st.Job.ID]; a.Workers() > 0 {
			round = append(round, placedJob{job: st.Job, alloc: a.Clone()})
		}
	}
	t.rounds = append(t.rounds, round)
	if len(t.rounds) == maxRecordedRounds {
		kept := t.rounds[:0]
		for i := 0; i < len(t.rounds); i += 2 {
			kept = append(kept, t.rounds[i])
		}
		t.rounds = kept
		t.stride *= 2
	}
}
