package benchmark

import (
	"repro/internal/job"
	"repro/internal/trace"
)

// The per-layer metrics of a traced repetition: what its spans and
// counters say, then what the replay probes add.

// perLayer reports every per-layer metric, 0 for the ones this
// workload's path does not touch.
func perLayer(res *Result, out layerValues) {
	for _, d := range PerLayer {
		res.Metrics[d.Name] = Sample{Value: out[d.Name], Unit: d.Unit}
	}
}

// tail is the p99 of an ascending slice, or the highest percentile
// below it that still has ten samples beyond it.
func tail(asc []float64) float64 {
	return percentile(asc, min(99, topPercentile(len(asc))))
}

// simLayers attributes a traced sim repetition to its layers. The
// spans tile the timed region, so the four shares sum to 1 but for the
// loop around them.
func simLayers(w Workload, traceSeed int64, r *simRun, rep simRep, tr *Tracer) (layerValues, error) {
	out := layerValues{}
	spans := tr.Spans()
	self := selfTimes(spans)
	var stepSelfUS []float64
	var stepSelfNS int64
	for i, s := range spans {
		if s.Name == "sim.step" {
			stepSelfUS = append(stepSelfUS, float64(self[i])/1e3)
			stepSelfNS += self[i]
		}
	}
	wall := rep.wallS()
	asc := sorted(stepSelfUS)
	out["sim.submit_us_per_job"] = rep.ingestS * 1e6 / float64(w.Jobs)
	out["sim.ingest_share"] = rep.ingestS / wall
	out["sim.step_us_p99"] = tail(sorted(rep.stepUS))
	out["sim.step_self_us_p50"] = percentile(asc, 50)
	out["sim.step_self_us_p99"] = tail(asc)
	out["sim.step_self_share"] = float64(stepSelfNS) / 1e9 / wall
	out["sim.finish_ms"] = rep.finishS * 1e3
	out["sim.finish_share"] = rep.finishS / wall
	out["sim.rounds"] = float64(rep.rounds)
	out["sim.jobs_completed"] = float64(rep.completed)
	schedulerLayer(out, r.dec, wall)
	out["core.inconsistencies"] = float64(rep.inconsistencies)
	runtimeLayer(out, rep.mem, rep.rounds)
	out["bench.unattributed_share"] = 1 - rootCoverage(spans, rep.startNS, rep.endNS)
	out["bench.layer_share_sum"] = out["sim.ingest_share"] + out["sim.step_self_share"] + out["core.schedule_share"] + out["sim.finish_share"]

	p := &prober{tr: tr}
	var probeErr error
	p.probeTrace(out, func() {
		if _, err := trace.Generate(w.traceConfig(traceSeed)); err != nil {
			probeErr = err
		}
	}, r.jobs)
	if probeErr != nil {
		return nil, probeErr
	}
	if err := p.probeDecisions(out, r.c, r.dec.rounds); err != nil {
		return nil, err
	}
	_, err := p.probeState(out, r.c, r.eng, rep.report)
	return out, err
}

// svcLayers reports what a traced service repetition can see from the
// outside — both submission paths, the reader, the service's counters,
// the scheduler through its decorator — and lets the probes stand in
// for the engine goroutine it cannot see into. r's journal directory
// must still exist.
func svcLayers(w Workload, r *svcRun, rep svcRep, tr *Tracer) (layerValues, error) {
	out := layerValues{}
	webAsc, directAsc, snapAsc := sorted(positive(rep.postUS)), sorted(rep.directUS), sorted(rep.snapGetUS)
	out["web.submit_us_p50"] = percentile(webAsc, 50)
	out["web.submit_us_p99"] = tail(webAsc)
	out["service.submit_us_p50"] = percentile(directAsc, 50)
	out["service.submit_us_p99"] = tail(directAsc)
	out["web.submit_overhead_us"] = out["web.submit_us_p50"] - out["service.submit_us_p50"]
	out["web.snapshot_get_us_p50"] = percentile(snapAsc, 50)
	out["web.snapshot_get_us_p99"] = tail(snapAsc)
	out["web.job_get_us_p50"] = median(rep.jobGetUS)
	out["web.snapshot_bytes_final"] = float64(rep.snapshotBytes)
	out["service.accepted"] = float64(rep.accepted)
	out["service.deduped"] = float64(rep.deduped)
	out["service.busy_rejects"] = float64(rep.busy)
	out["service.rounds"] = float64(rep.rounds)
	out["service.rounds_per_submit"] = float64(rep.rounds) / float64(rep.accepted)
	out["service.stop_ms"] = rep.stopS * 1e3
	out["service.recover_full_ms"] = rep.recoverS * 1e3
	out["service.recover_ckpt_ms"] = rep.recoverCkptMS
	out["service.recover_replayed_records"] = float64(rep.replayed)
	out["service.verify_wal_ms"] = rep.verifyMS
	out["sim.jobs_completed"] = float64(rep.completed)
	schedulerLayer(out, r.dec, rep.wallS())
	out["core.inconsistencies"] = float64(rep.inconsistencies)
	runtimeLayer(out, rep.mem, int(rep.accepted))
	out["bench.unattributed_share"] = 1 - rootCoverage(tr.Spans(), rep.startNS, rep.endNS)

	jobs, err := buildJobs(r.subs)
	if err != nil {
		return nil, err
	}
	p := &prober{tr: tr}
	p.probeTrace(out, func() { buildJobs(r.subs) }, jobs) //nolint:errcheck // built without error just above
	if err := p.probeDecisions(out, r.c, r.dec.rounds); err != nil {
		return nil, err
	}
	eng, report, err := p.probeEngine(out, r.c, jobs)
	if err != nil {
		return nil, err
	}
	state, err := p.probeState(out, r.c, eng, report)
	if err != nil || !w.Durable {
		return out, err
	}
	return out, p.probeWAL(out, r.dir, int(rep.accepted), state)
}

// buildJobs builds the engine jobs of the submissions, as the web
// handler does one by one.
func buildJobs(subs []submission) ([]*job.Job, error) {
	jobs := make([]*job.Job, len(subs))
	for i, s := range subs {
		j, err := s.job()
		if err != nil {
			return nil, err
		}
		jobs[i] = j
	}
	return jobs, nil
}

// schedulerLayer reports what the decorator saw of core.Scheduler.
func schedulerLayer(out layerValues, dec *timedScheduler, wallS float64) {
	asc := sorted(dec.callUS)
	total := 0.0
	for _, us := range asc {
		total += us
	}
	calls := float64(len(asc))
	out["core.schedule_us_p50"] = percentile(asc, 50)
	out["core.schedule_us_p99"] = tail(asc)
	out["core.schedule_share"] = total / 1e6 / wallS
	out["core.schedule_calls"] = calls
	if calls > 0 {
		out["core.jobs_per_call"] = float64(dec.offered) / calls
		out["core.dp_call_share"] = float64(dec.dpCalls) / calls
	}
	if dec.offered > 0 {
		out["core.placed_ratio"] = float64(dec.placed) / float64(dec.offered)
	}
}

// runtimeLayer reports what the Go runtime did over the traced
// repetition's timed region.
func runtimeLayer(out layerValues, m memDelta, ops int) {
	out["runtime.gc_count"] = m.gcCount
	out["runtime.gc_pause_total_ms"] = m.gcPauseMS
	out["runtime.mallocs_per_op"] = m.mallocs / float64(ops)
	out["runtime.heap_sys_mb"] = m.heapSysMB
}
