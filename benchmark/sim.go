package benchmark

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// simRun is one freshly set-up simulation: what a hadarsim user has
// built by the time the first job is submitted.
type simRun struct {
	c     *cluster.Cluster
	jobs  []*job.Job
	hadar *core.Scheduler
	dec   *timedScheduler // nil unless traced
	eng   *sim.Engine
}

// setupSim builds the cluster, generates the trace and constructs the
// engine with the defaults users get. With a tracer the scheduler is
// wrapped in the timing decorator.
func (w Workload) setupSim(traceSeed int64, opts sim.Options, tr *Tracer) (*simRun, error) {
	r := &simRun{c: w.cluster()}
	jobs, err := trace.Generate(w.traceConfig(traceSeed))
	if err != nil {
		return nil, err
	}
	r.jobs = jobs
	copts := core.DefaultOptions()
	r.hadar = core.New(copts)
	var s sched.Scheduler = r.hadar
	if tr != nil {
		r.dec = newTimedScheduler(r.hadar, tr, copts.DPJobLimit)
		s = r.dec
	}
	r.eng, err = sim.NewEngine(r.c, s, opts)
	return r, err
}

// simRep is what one repetition of a sim workload measured and
// produced.
type simRep struct {
	ingestS, loopS, finishS float64
	// ingestSegS are the durations of segmentsPerPhase equal shares of
	// the submissions; stepUS is the latency of every ProcessNextEvent.
	ingestSegS, stepUS []float64
	mem                memDelta
	simOutcome
	report *metrics.Report
	// startNS and endNS bound the timed region in the tracer's time base.
	startNS, endNS int64
}

// simOutcome is what a repetition produced, as opposed to how long it
// took: it must repeat exactly on one commit and seed.
type simOutcome struct {
	digest            uint64
	rounds, completed int
	inconsistencies   int
}

// outcome reads the finished engine. It is kept apart from run so that
// no clock reading shares a function with the schedule digest.
func (r *simRun) outcome(report *metrics.Report) simOutcome {
	return simOutcome{
		digest:          r.eng.Digest(),
		rounds:          r.eng.Round(),
		completed:       len(report.Jobs),
		inconsistencies: r.hadar.Inconsistencies(),
	}
}

func (r simRep) wallS() float64 { return r.ingestS + r.loopS + r.finishS }

// timed cuts the repetition into its segments: the ingest shares, the
// round loop in equal runs of rounds (the sum of their latencies, which
// leaves out only the loop around them), and Finish.
func (r simRep) timed() timedRep {
	loop := chunkSums(r.stepUS, segmentsPerPhase)
	for i := range loop {
		loop[i] /= 1e6
	}
	wall := append(append(append([]float64(nil), r.ingestSegS...), loop...), r.finishS)
	return timedRep{wallSegS: wall, opsSegS: loop, ops: r.rounds, opUS: r.stepUS, allocMB: r.mem.allocMB}
}

// identity is what must repeat exactly from repetition to repetition.
func (r simOutcome) identity() string {
	return fmt.Sprintf("digest=%#x rounds=%d completed=%d", r.digest, r.rounds, r.completed)
}

// run submits every job, steps the engine to completion and finishes
// it, all on the calling goroutine. Every ProcessNextEvent is timed;
// with a tracer each boundary also leaves a span.
func (r *simRun) run(tr *Tracer) (simRep, error) {
	rep := simRep{stepUS: make([]float64, 0, 8192)}
	runtime.GC()
	before := readMem()
	t0 := time.Now()
	share := (len(r.jobs) + segmentsPerPhase - 1) / segmentsPerPhase
	mark := t0
	for i, j := range r.jobs {
		var s time.Time
		if tr != nil {
			s = time.Now()
		}
		if err := r.eng.SubmitJob(j); err != nil {
			return rep, err
		}
		if tr != nil {
			tr.Add("sim.submit", -1, int64(i), s, time.Now())
		}
		if (i+1)%share == 0 || i+1 == len(r.jobs) {
			now := time.Now()
			rep.ingestSegS = append(rep.ingestSegS, now.Sub(mark).Seconds())
			mark = now
		}
	}
	t1 := mark
	for r.eng.HasPendingEvents() {
		s := time.Now()
		id := tr.Begin("sim.step", -1, int64(r.eng.Round()), s)
		if r.dec != nil {
			r.dec.parent = id
		}
		err := r.eng.ProcessNextEvent()
		e := time.Now()
		tr.End(id, e)
		if err != nil {
			return rep, err
		}
		rep.stepUS = append(rep.stepUS, micros(e.Sub(s)))
	}
	t2 := time.Now()
	report, err := r.eng.Finish()
	t3 := time.Now()
	if err != nil {
		return rep, err
	}
	tr.Add("sim.finish", -1, 0, t2, t3)
	rep.mem = memSince(before)
	rep.ingestS = t1.Sub(t0).Seconds()
	rep.loopS = t2.Sub(t1).Seconds()
	rep.finishS = t3.Sub(t2).Seconds()
	rep.simOutcome = r.outcome(report)
	rep.report = report
	if tr != nil {
		rep.startNS, rep.endNS = tr.ns(t0), tr.ns(t3)
	}
	return rep, nil
}

// micros converts a duration to microseconds.
func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// millis converts a duration to milliseconds.
func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// memDelta is what the Go runtime did over a timed region.
type memDelta struct {
	allocMB   float64
	mallocs   float64
	gcCount   float64
	gcPauseMS float64
	heapSysMB float64
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// memSince reads the runtime's counters now and returns what changed
// since before.
func memSince(before runtime.MemStats) memDelta {
	now := readMem()
	return memDelta{
		allocMB:   float64(now.TotalAlloc-before.TotalAlloc) / (1 << 20),
		mallocs:   float64(now.Mallocs - before.Mallocs),
		gcCount:   float64(now.NumGC - before.NumGC),
		gcPauseMS: float64(now.PauseTotalNs-before.PauseTotalNs) / 1e6,
		heapSysMB: float64(now.HeapSys) / (1 << 20),
	}
}
