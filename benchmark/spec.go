package benchmark

// MetricDef names one metric. BENCHMARK.json lists the same names,
// units, directions and bounds; TestSpecMatchesBenchmarkJSON keeps the
// two in step.
type MetricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// Moves is, for a per-layer metric, the end-to-end metric and the
	// workload it is predicted to move.
	Moves string
}

// EndToEnd are the metrics a user of the system sees. Every workload
// reports every one of them, so each is defined per workload kind: the
// "op" is one ProcessNextEvent (one scheduling round) on sim-* and one
// accepted POST /api/jobs, handler entry to verdict, on svc-*. The
// tail of the op latency is not here: its run-to-run spread in the
// acceptance sandbox (up to 35 percent in a busy hour) is wider than
// any bound worth having, so it is reported per layer (sim.step_us_p99,
// web.submit_us_p99) and not gated.
var EndToEnd = []MetricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.20},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "op_p50_us", Unit: "us", Better: "lower", Bound: 0.20},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// PerLayer are the metrics of single layers, prefixed with the package
// they measure. Every workload reports every one; 0 means the workload
// does not take that path (a sim has no journal, a service's engine
// steps are out of the harness's sight).
var PerLayer = []MetricDef{
	{Name: "trace.generate_ms", Unit: "ms", Better: "lower", Moves: "setup_s on sim-scale-5k"},
	{Name: "eventq.push_pop_ns", Unit: "ns", Better: "lower", Moves: "wall_s on sim-* (expected negligible)"},
	{Name: "sim.submit_us_per_job", Unit: "us", Better: "lower", Moves: "wall_s on sim-scale-5k; op_p50_us on svc-*"},
	{Name: "sim.ingest_share", Unit: "ratio", Better: "lower", Moves: "wall_s on sim-scale-5k"},
	{Name: "sim.step_us_p99", Unit: "us", Better: "lower", Moves: "the paper's per-round decision budget at the tail; not gated (too noisy in this sandbox)"},
	{Name: "sim.step_self_us_p50", Unit: "us", Better: "lower", Moves: "op_p50_us, ops_per_s on sim-*"},
	{Name: "sim.step_self_us_p99", Unit: "us", Better: "lower", Moves: "sim.step_us_p99 on sim-*"},
	{Name: "sim.step_self_share", Unit: "ratio", Better: "lower", Moves: "ops_per_s, wall_s on sim-*"},
	{Name: "sim.finish_ms", Unit: "ms", Better: "lower", Moves: "wall_s on sim-*"},
	{Name: "sim.finish_share", Unit: "ratio", Better: "lower", Moves: "wall_s on sim-*"},
	{Name: "sim.rounds", Unit: "count", Better: "lower", Moves: "wall_s everywhere; repeats exactly on sim-*"},
	{Name: "sim.jobs_completed", Unit: "count", Better: "higher", Moves: "none; repeats exactly"},
	{Name: "sim.snapshot_us_at_1k", Unit: "us", Better: "lower", Moves: "ops_per_s, op_p50_us, alloc_mb on svc-soak; little on svc-durable"},
	{Name: "sim.snapshot_us_at_4k", Unit: "us", Better: "lower", Moves: "ops_per_s, op_p50_us, alloc_mb on svc-soak"},
	{Name: "sim.marshal_state_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s, wall_s on svc-durable"},
	{Name: "sim.restore_engine_ms", Unit: "ms", Better: "lower", Moves: "service.recover_ckpt_ms on svc-durable"},
	{Name: "sim.state_bytes", Unit: "bytes", Better: "lower", Moves: "wal.checkpoint_write_ms on svc-durable"},
	{Name: "core.schedule_us_p50", Unit: "us", Better: "lower", Moves: "op_p50_us, ops_per_s on sim-*"},
	{Name: "core.schedule_us_p99", Unit: "us", Better: "lower", Moves: "sim.step_us_p99 on sim-*"},
	{Name: "core.schedule_share", Unit: "ratio", Better: "lower", Moves: "wall_s on sim-*; under 0.05 on svc-*"},
	{Name: "core.schedule_calls", Unit: "count", Better: "lower", Moves: "none; repeats exactly on sim-*"},
	{Name: "core.jobs_per_call", Unit: "count", Better: "lower", Moves: "core.schedule_us_p50"},
	{Name: "core.placed_ratio", Unit: "ratio", Better: "higher", Moves: "sim.rounds"},
	{Name: "core.dp_call_share", Unit: "ratio", Better: "lower", Moves: "core.schedule_us_p99 on sim-paper-480"},
	{Name: "core.inconsistencies", Unit: "count", Better: "lower", Moves: "must be 0; counts as failed"},
	{Name: "sched.usable_types_ns_per_job", Unit: "ns", Better: "lower", Moves: "core.schedule_us_p50 on sim-paper-480"},
	{Name: "sched.rate_validate_ns_per_alloc", Unit: "ns", Better: "lower", Moves: "sim.step_self_us_p50 on sim-paper-480"},
	{Name: "cluster.newstate_us", Unit: "us", Better: "lower", Moves: "op_p50_us on sim-scale-5k; setup_s"},
	{Name: "cluster.clone_us", Unit: "us", Better: "lower", Moves: "op_p50_us on sim-scale-5k"},
	{Name: "cluster.apply_release_us_per_round", Unit: "us", Better: "lower", Moves: "op_p50_us on sim-scale-5k"},
	{Name: "cluster.canonical_ns_per_alloc", Unit: "ns", Better: "lower", Moves: "alloc_mb on sim-paper-480"},
	{Name: "metrics.report_clone_us", Unit: "us", Better: "lower", Moves: "web.snapshot_get_us_p50, alloc_mb on svc-soak"},
	{Name: "service.submit_us_p50", Unit: "us", Better: "lower", Moves: "op_p50_us, ops_per_s on svc-*"},
	{Name: "service.submit_us_p99", Unit: "us", Better: "lower", Moves: "web.submit_us_p99 on svc-*"},
	{Name: "service.accepted", Unit: "count", Better: "higher", Moves: "none; repeats exactly"},
	{Name: "service.deduped", Unit: "count", Better: "higher", Moves: "none; repeats exactly"},
	{Name: "service.busy_rejects", Unit: "count", Better: "lower", Moves: "ops_per_s on svc-*"},
	{Name: "service.rounds", Unit: "count", Better: "lower", Moves: "alloc_mb on svc-soak"},
	{Name: "service.rounds_per_submit", Unit: "ratio", Better: "lower", Moves: "alloc_mb on svc-soak"},
	{Name: "service.stop_ms", Unit: "ms", Better: "lower", Moves: "wall_s on svc-soak"},
	{Name: "service.recover_full_ms", Unit: "ms", Better: "lower", Moves: "wall_s on svc-durable"},
	{Name: "service.recover_ckpt_ms", Unit: "ms", Better: "lower", Moves: "none end to end; the operator's usual restart"},
	{Name: "service.recover_replayed_records", Unit: "count", Better: "lower", Moves: "service.recover_full_ms"},
	{Name: "service.verify_wal_ms", Unit: "ms", Better: "lower", Moves: "service.recover_full_ms"},
	{Name: "wal.append_us_p50", Unit: "us", Better: "lower", Moves: "op_p50_us, ops_per_s on svc-durable; nothing on svc-soak"},
	{Name: "wal.append_us_p99", Unit: "us", Better: "lower", Moves: "web.submit_us_p99 on svc-durable"},
	{Name: "wal.append_nosync_us_p50", Unit: "us", Better: "lower", Moves: "op_p50_us on svc-durable"},
	{Name: "wal.sync_us_p50", Unit: "us", Better: "lower", Moves: "op_p50_us on svc-durable (the sandbox's fsync)"},
	{Name: "wal.scan_ms", Unit: "ms", Better: "lower", Moves: "service.recover_full_ms"},
	{Name: "wal.records", Unit: "count", Better: "lower", Moves: "service.recover_full_ms"},
	{Name: "wal.journal_bytes", Unit: "bytes", Better: "lower", Moves: "wal.scan_ms"},
	{Name: "wal.bytes_per_submit", Unit: "bytes", Better: "lower", Moves: "wal.append_nosync_us_p50"},
	{Name: "wal.checkpoint_write_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s, web.submit_us_p99 on svc-durable"},
	{Name: "wal.checkpoint_bytes", Unit: "bytes", Better: "lower", Moves: "wal.checkpoint_write_ms"},
	{Name: "web.submit_us_p50", Unit: "us", Better: "lower", Moves: "op_p50_us on svc-*"},
	{Name: "web.submit_us_p99", Unit: "us", Better: "lower", Moves: "the submitter's tail latency on svc-*; not gated"},
	{Name: "web.submit_overhead_us", Unit: "us", Better: "lower", Moves: "op_p50_us on svc-*"},
	{Name: "web.snapshot_get_us_p50", Unit: "us", Better: "lower", Moves: "the svc-soak reader; not gated"},
	{Name: "web.snapshot_get_us_p99", Unit: "us", Better: "lower", Moves: "the svc-soak reader; not gated"},
	{Name: "web.job_get_us_p50", Unit: "us", Better: "lower", Moves: "the svc-soak reader; not gated"},
	{Name: "web.snapshot_bytes_final", Unit: "bytes", Better: "lower", Moves: "web.snapshot_get_us_p50"},
	{Name: "runtime.gc_count", Unit: "count", Better: "lower", Moves: "wall_s and the p99s everywhere"},
	{Name: "runtime.gc_pause_total_ms", Unit: "ms", Better: "lower", Moves: "the p99s everywhere"},
	{Name: "runtime.mallocs_per_op", Unit: "count", Better: "lower", Moves: "alloc_mb everywhere"},
	{Name: "runtime.heap_sys_mb", Unit: "MB", Better: "lower", Moves: "peak_rss_mb everywhere"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower", Moves: "the harness's own cost"},
	{Name: "bench.unattributed_share", Unit: "ratio", Better: "lower", Moves: "the harness's own blind spot"},
	{Name: "bench.layer_share_sum", Unit: "ratio", Better: "higher", Moves: "1 within 0.03 on sim-*"},
}

// exactCounts are the per-layer counts that must repeat exactly
// between two runs of one commit on one seed; -compare checks them for
// equality together with the run identities.
var exactCounts = []string{"sim.rounds", "sim.jobs_completed", "service.accepted", "service.deduped"}
