package benchmark

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/eventq"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/wal"
)

// A probe runs after the traced repetition: it feeds inputs recorded
// during the run back into one layer's public functions in isolation,
// so the layer gets a number of its own even where the run itself
// cannot see inside the engine goroutine.

// probeFloor is the least time a probe loops for, so that a call of a
// few nanoseconds is not timed by a clock of a few tens.
const probeFloor = 5 * time.Millisecond

// prober times probes and leaves one span per probe.
type prober struct {
	tr *Tracer
	n  int64
}

// each runs fn repeatedly until probeFloor has passed and returns the
// mean duration of one call.
func (p *prober) each(name string, fn func()) time.Duration {
	start := time.Now()
	calls := 0
	for {
		fn()
		calls++
		if time.Since(start) >= probeFloor {
			break
		}
	}
	end := time.Now()
	p.n++
	p.tr.Add("probe."+name, -1, p.n, start, end)
	return end.Sub(start) / time.Duration(calls)
}

// layerValues maps per-layer metric names to values; units come from
// the metric table.
type layerValues map[string]float64

// probeTrace times input generation and the layers that see each job
// once: the event queue and sched.AppendUsableTypes.
func (p *prober) probeTrace(out layerValues, generate func(), jobs []*job.Job) {
	out["trace.generate_ms"] = millis(p.each("trace.generate", generate))
	n := float64(len(jobs))
	d := p.each("eventq.push_pop", func() {
		var q eventq.EventQueue
		for _, j := range jobs {
			q.Push(j.Arrival, j)
		}
		for q.Len() > 0 {
			q.Pop()
		}
	})
	out["eventq.push_pop_ns"] = float64(d.Nanoseconds()) / n
	buf := make([]gpu.Type, 0, gpu.NumTypes)
	d = p.each("sched.usable_types", func() {
		for _, j := range jobs {
			buf = sched.AppendUsableTypes(buf[:0], j)
		}
	})
	out["sched.usable_types_ns_per_job"] = float64(d.Nanoseconds()) / n
}

// probeDecisions replays the decisions the decorator recorded into
// sched.Validate, sched.Rate, cluster.Alloc.Canonical and one
// cluster.State, and times cluster.NewState and State.Clone.
func (p *prober) probeDecisions(out layerValues, c *cluster.Cluster, rounds [][]placedJob) error {
	allocs := 0
	for _, r := range rounds {
		allocs += len(r)
	}
	if allocs == 0 {
		return fmt.Errorf("no decisions recorded for the replay probes")
	}
	var sink float64
	var failed error
	d := p.each("sched.rate_validate", func() {
		for _, r := range rounds {
			for _, pj := range r {
				if err := sched.Validate(pj.job, pj.alloc); err != nil {
					failed = err
				}
				sink += sched.Rate(pj.job, c, pj.alloc)
			}
		}
	})
	if failed != nil {
		return fmt.Errorf("recorded decision does not validate: %w", failed)
	}
	if sink <= 0 {
		return fmt.Errorf("recorded decisions have no rate")
	}
	out["sched.rate_validate_ns_per_alloc"] = float64(d.Nanoseconds()) / float64(allocs)
	d = p.each("cluster.canonical", func() {
		for _, r := range rounds {
			for _, pj := range r {
				sink += float64(len(pj.alloc.Canonical()))
			}
		}
	})
	out["cluster.canonical_ns_per_alloc"] = float64(d.Nanoseconds()) / float64(allocs)

	var st *cluster.State
	out["cluster.newstate_us"] = micros(p.each("cluster.newstate", func() { st = cluster.NewState(c) }))
	out["cluster.clone_us"] = micros(p.each("cluster.clone", func() { sink += float64(st.Clone().TotalFree()) }))
	d = p.each("cluster.apply_release", func() {
		for _, r := range rounds {
			for _, pj := range r {
				if err := st.Allocate(pj.alloc); err != nil {
					failed = err
				}
			}
			for _, pj := range r {
				if err := st.Release(pj.alloc); err != nil {
					failed = err
				}
			}
		}
	})
	if failed != nil {
		return fmt.Errorf("recorded round does not fit the cluster: %w", failed)
	}
	out["cluster.apply_release_us_per_round"] = micros(d) / float64(len(rounds))
	return nil
}

// probeState times what the service does with an engine of this size on
// every checkpoint and every publish: MarshalState, RestoreEngine and
// Report.Clone.
func (p *prober) probeState(out layerValues, c *cluster.Cluster, eng *sim.Engine, report *metrics.Report) ([]byte, error) {
	var state []byte
	var failed error
	d := p.each("sim.marshal_state", func() {
		data, err := eng.MarshalState()
		if err != nil {
			failed = err
		}
		state = data
	})
	if failed != nil {
		return nil, failed
	}
	out["sim.marshal_state_ms"] = millis(d)
	out["sim.state_bytes"] = float64(len(state))
	d = p.each("sim.restore_engine", func() {
		if _, err := sim.RestoreEngine(c, core.New(core.DefaultOptions()), sim.DefaultOptions(), state); err != nil {
			failed = err
		}
	})
	if failed != nil {
		return nil, failed
	}
	out["sim.restore_engine_ms"] = millis(d)
	var sink int
	out["metrics.report_clone_us"] = micros(p.each("metrics.report_clone", func() { sink += len(report.Clone().Jobs) }))
	return state, nil
}

// probeEngine stands in for the engine goroutine the service hides: a
// standalone engine is fed the service's jobs the way the service feeds
// them — submit one, step until idle — with every SubmitJob, step and
// Schedule timed, and Snapshot timed once 1 000 and 4 000 jobs have
// completed (its cost grows with history, which is the soak workload's
// point). It returns the engine at end-of-run size and its report.
func (p *prober) probeEngine(out layerValues, c *cluster.Cluster, jobs []*job.Job) (*sim.Engine, *metrics.Report, error) {
	dec := newTimedScheduler(core.New(core.DefaultOptions()), nil, core.DefaultOptions().DPJobLimit)
	eng, err := sim.NewEngine(c, dec, sim.DefaultOptions())
	if err != nil {
		return nil, nil, err
	}
	snapshotAt := map[int]string{1000: "sim.snapshot_us_at_1k", 4000: "sim.snapshot_us_at_4k"}
	start := time.Now()
	var submit time.Duration
	var selfUS []float64
	for i, j := range jobs {
		s := time.Now()
		if err := eng.SubmitJob(j); err != nil {
			return nil, nil, err
		}
		submit += time.Since(s)
		for eng.HasPendingEvents() {
			calls := len(dec.callUS)
			s := time.Now()
			if err := eng.ProcessNextEvent(); err != nil {
				return nil, nil, err
			}
			self := micros(time.Since(s))
			for _, us := range dec.callUS[calls:] {
				self -= us
			}
			selfUS = append(selfUS, self)
		}
		if phase, _ := eng.Phase(j.ID); phase != sim.JobFinished {
			return nil, nil, fmt.Errorf("probe engine went idle with job %d %v", j.ID, phase)
		}
		if name, ok := snapshotAt[i+1]; ok {
			var sink int
			out[name] = micros(p.each(name, func() { sink += eng.Snapshot().Completed }))
		}
	}
	s := time.Now()
	report, err := eng.Finish()
	if err != nil {
		return nil, nil, err
	}
	out["sim.finish_ms"] = millis(time.Since(s))
	p.n++
	p.tr.Add("probe.engine", -1, p.n, start, time.Now())
	asc := sorted(selfUS)
	out["sim.submit_us_per_job"] = micros(submit) / float64(len(jobs))
	out["sim.step_self_us_p50"] = percentile(asc, 50)
	out["sim.step_self_us_p99"] = tail(asc)
	return eng, report, nil
}

// probeWAL reads the run's journal back and re-appends its payloads to
// fresh journals beside it: under SyncAlways for the latency the
// service pays per verdict, and under SyncGroup to tell the write from
// the fsync. It also times one checkpoint of the given payload.
func (p *prober) probeWAL(out layerValues, dir string, accepted int, checkpoint []byte) error {
	path := filepath.Join(dir, "journal.wal")
	var scan *wal.ScanResult
	var failed error
	d := p.each("wal.scan", func() {
		res, err := wal.Scan(path)
		if err != nil {
			failed = err
		}
		scan = res
	})
	if failed != nil {
		return failed
	}
	out["wal.scan_ms"] = millis(d)
	out["wal.records"] = float64(len(scan.Records))
	out["wal.journal_bytes"] = float64(scan.ValidSize)
	out["wal.bytes_per_submit"] = float64(scan.ValidSize) / float64(accepted)

	// A thousand synced appends are enough for a p99 with ten samples
	// beyond it and cost about as much as a third of the run.
	records := scan.Records
	if len(records) > 1000 {
		records = records[:1000]
	}
	appendAll := func(name string, policy wal.SyncPolicy, each func(w *wal.Writer, payload []byte) error) error {
		probePath := filepath.Join(dir, name)
		defer os.Remove(probePath)
		w, err := wal.Create(probePath, policy, nil)
		if err != nil {
			return err
		}
		start := time.Now()
		for _, payload := range records {
			if err := each(w, payload); err != nil {
				w.Abort()
				return err
			}
		}
		p.n++
		p.tr.Add("probe.wal."+name, -1, p.n, start, time.Now())
		return w.Close()
	}
	var alwaysUS, writeUS, syncUS []float64
	err := appendAll("probe-always.wal", wal.SyncAlways, func(w *wal.Writer, payload []byte) error {
		s := time.Now()
		err := w.Append(payload)
		alwaysUS = append(alwaysUS, micros(time.Since(s)))
		return err
	})
	if err != nil {
		return err
	}
	err = appendAll("probe-group.wal", wal.SyncGroup, func(w *wal.Writer, payload []byte) error {
		s := time.Now()
		if err := w.Append(payload); err != nil {
			return err
		}
		m := time.Now()
		err := w.Sync()
		writeUS = append(writeUS, micros(m.Sub(s)))
		syncUS = append(syncUS, micros(time.Since(m)))
		return err
	})
	if err != nil {
		return err
	}
	asc := sorted(alwaysUS)
	out["wal.append_us_p50"] = percentile(asc, 50)
	out["wal.append_us_p99"] = tail(asc)
	out["wal.append_nosync_us_p50"] = median(writeUS)
	out["wal.sync_us_p50"] = median(syncUS)

	ckpt := filepath.Join(dir, "probe.ckpt")
	defer os.Remove(ckpt)
	d = p.each("wal.checkpoint_write", func() {
		if err := wal.WriteCheckpoint(ckpt, checkpoint); err != nil {
			failed = err
		}
	})
	out["wal.checkpoint_write_ms"] = millis(d)
	out["wal.checkpoint_bytes"] = float64(len(checkpoint))
	return failed
}
