package core_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// queueAudit wraps a Hadar scheduler and, after every round, compares
// the queue order it carried over from earlier rounds with the order a
// scheduler that has seen no earlier round sorts the same context into.
type queueAudit struct {
	t       *testing.T
	opts    core.Options
	s       *core.Scheduler
	rounds  int
	resized int // rounds whose job list differed in length from the last
	lastLen int
}

func (q *queueAudit) Name() string { return q.s.Name() }

func (q *queueAudit) Schedule(ctx *sched.Context) map[int]cluster.Alloc {
	out := q.s.Schedule(ctx)
	if len(ctx.Jobs) == 0 {
		return out
	}
	q.rounds++
	if len(ctx.Jobs) != q.lastLen {
		q.resized++
	}
	q.lastLen = len(ctx.Jobs)
	got, want := q.s.LastQueue(), core.FreshQueue(q.opts, ctx)
	if len(got) != len(want) {
		q.t.Fatalf("round %d: carried queue holds %d jobs, fresh sort %d", ctx.Round, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			q.t.Fatalf("round %d: queue position %d holds job %d, a fresh sort job %d",
				ctx.Round, i, got[i].Job.ID, want[i].Job.ID)
		}
	}
	return out
}

// TestCarriedQueueOrderMatchesFreshSort drives an engine through
// arrivals, completions, cancellations and an outage, and checks that
// every round's queue, sorted from the previous round's order, is the
// one a full sort from arrival order gives. InverseJCT's age term moves
// every waiting job's density each round, so the carried order has
// something to drift from.
func TestCarriedQueueOrderMatchesFreshSort(t *testing.T) {
	opts := core.DefaultOptions()
	audit := &queueAudit{t: t, opts: opts, s: core.New(opts)}

	cfg := trace.DefaultConfig()
	cfg.NumJobs = 96
	jobs, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	simOpts := sim.ValidatedOptions()
	simOpts.Failures = []sim.Failure{{Node: 0, Start: 3700, End: 9000}, {Node: 6, Start: 5000, End: 7000}}
	eng, err := sim.NewEngine(experiments.SimCluster(), audit, simOpts)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if err := eng.SubmitJob(j); err != nil {
			t.Fatal(err)
		}
	}
	// Every third round, cancel one running job among every fifth of
	// the trace, so jobs also leave from the middle of the list.
	cancelled := map[int]bool{}
	for eng.HasPendingEvents() {
		if err := eng.ProcessNextEvent(); err != nil {
			t.Fatal(err)
		}
		if eng.Round()%3 != 0 {
			continue
		}
		for i := 0; i < len(jobs); i += 5 {
			id := jobs[i].ID
			if phase, _ := eng.Phase(id); phase == sim.JobActive && !cancelled[id] {
				if err := eng.CancelJob(id); err != nil {
					t.Fatal(err)
				}
				cancelled[id] = true
				break
			}
		}
	}
	rep, err := eng.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if audit.rounds < 100 || audit.resized < 20 || len(rep.Jobs) == len(jobs) {
		t.Fatalf("%d rounds, %d with a new job count, %d of %d jobs finished: too little churn",
			audit.rounds, audit.resized, len(rep.Jobs), len(jobs))
	}
}

// TestCarriedQueueOrderAcrossUnrelatedContexts reuses one scheduler on
// contexts that do not follow each other — different clusters, traces,
// job subsets and clocks — and checks every queue against a fresh sort.
func TestCarriedQueueOrderAcrossUnrelatedContexts(t *testing.T) {
	opts := core.DefaultOptions()
	audit := &queueAudit{t: t, opts: opts, s: core.New(opts)}
	var ctxs []*sched.Context
	for _, c := range []struct {
		cluster *cluster.Cluster
		jobs    int
		seed    int64
	}{
		{experiments.SimCluster(), 64, 1},
		{experiments.SimCluster(), 8, 2},
		{experiments.ScaleCluster(250), 480, 3},
		{experiments.SimCluster(), 64, 1},
	} {
		ctx, err := experiments.RoundContext(c.cluster, c.jobs, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		ctxs = append(ctxs, ctx)
	}
	whole := ctxs[0]
	for _, ctx := range ctxs {
		audit.Schedule(ctx)
		audit.Schedule(ctx)
	}
	// Subsets of one context in orders no engine produces: reversed,
	// every other job, a later window, and the same window later on.
	var reversed, halves []*sched.JobState
	for i := len(whole.Jobs) - 1; i >= 0; i-- {
		reversed = append(reversed, whole.Jobs[i])
	}
	for i := 0; i < len(whole.Jobs); i += 2 {
		halves = append(halves, whole.Jobs[i])
	}
	for _, jobs := range [][]*sched.JobState{reversed, halves, whole.Jobs[20:], whole.Jobs[10:40], whole.Jobs} {
		whole.Jobs = jobs
		whole.Now += 3600
		audit.Schedule(whole)
	}
}
