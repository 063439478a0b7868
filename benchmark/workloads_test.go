package benchmark

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// small shrinks every workload to a pass of well under five seconds.
func small(w Workload) Workload {
	w = w.Shrunk(10)
	if w.Service {
		w.Jobs = 100
	} else {
		w.Jobs, w.Nodes = 48, min(w.Nodes, 60)
	}
	return w
}

// TestEveryWorkloadEmitsEveryNamedMetric makes a shrunken timed and a
// shrunken traced run of each workload and checks the contract of the
// output: every end-to-end metric, non-zero, on the timed run; every
// per-layer metric on the traced run; each with its unit and a legal
// name; the outputs correct; a span file written.
func TestEveryWorkloadEmitsEveryNamedMetric(t *testing.T) {
	for _, full := range Workloads() {
		w := small(full)
		t.Run(w.Name, func(t *testing.T) {
			dir := t.TempDir()
			for _, traced := range []bool{false, true} {
				res, err := Run(Config{Workload: w, Seed: 2, Reps: 2, Trace: traced, OutDir: dir})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("traced=%v: correct=%v attempted=%d failed=%d: %s", traced, res.Correct, res.Attempted, res.Failed, res.Error)
				}
				defs := EndToEnd
				if traced {
					defs = PerLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("traced=%v: %d metrics, want %d", traced, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					s, ok := res.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("traced=%v: %s not emitted", traced, d.Name)
					case s.Unit != d.Unit || s.Unit == "":
						t.Errorf("%s: unit %q, want %q", d.Name, s.Unit, d.Unit)
					case !metricName.MatchString(d.Name) || len(d.Name) > 64:
						t.Errorf("%s: illegal metric name", d.Name)
					case !traced && s.Value <= 0:
						t.Errorf("%s = %v on the timed run, must never be 0", d.Name, s.Value)
					}
				}
				if traced {
					layersMeasured(t, w, res)
					if _, err := os.Stat(filepath.Join(dir, w.Name+".trace.json")); err != nil {
						t.Errorf("no span file: %v", err)
					}
				}
			}
			if left, _ := filepath.Glob(filepath.Join(dir, "wal-*")); len(left) > 0 {
				t.Errorf("journal directories left behind: %v", left)
			}
		})
	}
}

// layersMeasured checks that the layers on a workload's path report
// something, and that a sim explains its wall time.
func layersMeasured(t *testing.T, w Workload, res *Result) {
	t.Helper()
	want := []string{"core.schedule_us_p50", "core.schedule_calls", "sim.submit_us_per_job", "sim.state_bytes",
		"cluster.newstate_us", "sched.rate_validate_ns_per_alloc", "metrics.report_clone_us", "runtime.mallocs_per_op"}
	switch {
	case !w.Service:
		want = append(want, "sim.rounds", "sim.step_self_share", "bench.layer_share_sum")
		if got := res.Metrics["bench.unattributed_share"].Value; got > 0.03 {
			t.Errorf("spans leave %.3f of the wall time unattributed", got)
		}
		if got := res.Metrics["bench.layer_share_sum"].Value; got < 0.97 || got > 1.03 {
			t.Errorf("layer shares sum to %.3f", got)
		}
	case w.Durable:
		want = append(want, "wal.append_us_p50", "wal.records", "service.recover_full_ms", "service.recover_ckpt_ms",
			"service.deduped", "web.submit_us_p50", "service.submit_us_p50")
	default:
		want = append(want, "web.snapshot_get_us_p50", "web.job_get_us_p50", "service.accepted", "service.stop_ms")
		if got := res.Metrics["wal.records"].Value; got != 0 {
			t.Errorf("the soak workload has no journal, yet wal.records = %v", got)
		}
	}
	for _, name := range want {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want it measured", name, res.Metrics[name].Value)
		}
	}
}

func TestSimGateCatchesAWrongDigest(t *testing.T) {
	w := Workload{Name: "sim-paper-480", Jobs: 480}
	good := simRep{simOutcome: simOutcome{digest: goldenPaperDigest, rounds: 4378, completed: 480}}
	if err := simGate(w, 1, []simRep{good, good}, good, nil); err != nil {
		t.Fatalf("agreeing repetitions rejected: %v", err)
	}
	drifted := good
	drifted.digest++
	for name, err := range map[string]error{
		"a repetition drifts":     simGate(w, 1, []simRep{good, drifted}, good, nil),
		"the oracle run drifts":   simGate(w, 1, []simRep{good, good}, drifted, nil),
		"not the golden digest":   simGate(w, 1, []simRep{drifted, drifted}, drifted, nil),
		"a job never completes":   simGate(w, 1, []simRep{{simOutcome: simOutcome{digest: goldenPaperDigest, rounds: 4378, completed: 479}}}, good, nil),
		"scheduler inconsistency": simGate(w, 1, []simRep{{simOutcome: simOutcome{digest: goldenPaperDigest, rounds: 4378, completed: 480, inconsistencies: 1}}}, good, nil),
	} {
		if err == nil {
			t.Errorf("%s: gate passed", name)
		}
	}
	// Another seed has another trace; only the golden check is off.
	if err := simGate(w, 2, []simRep{drifted, drifted}, drifted, nil); err != nil {
		t.Errorf("seed 2 held to seed 1's digest: %v", err)
	}
}

// A wrong output must turn into a failed run: every operation counted
// as failed, and the command exits non-zero on Correct == false.
func TestRunReportsAFailedGate(t *testing.T) {
	// 48 jobs under the paper workload's name and size claim: the
	// completion check fails against the 480 the gate is told to expect.
	w := Workload{Name: "sim-paper-480", Jobs: 480}
	res := &Result{Attempted: 10}
	res.fail(simGate(w, 1, []simRep{{simOutcome: simOutcome{completed: 48}}}, simRep{simOutcome: simOutcome{completed: 48}}, nil))
	if res.Correct || res.Failed != 10 || !strings.Contains(res.Error, "48 of 480") {
		t.Errorf("result %+v", res)
	}
}

// Durability is checked after the crash: a journal that lost an
// acknowledged record must fail the recovery gate.
func TestRecoveryGateCatchesALostAcknowledgedRecord(t *testing.T) {
	w := small(Workload{Name: "svc-durable", Jobs: 3000, Service: true, Durable: true, Writers: 2, DupEvery: 20})
	r, err := w.setupSvc(3, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.cleanup()
	rep, err := r.drive(nil)
	if err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(r.dir, "journal.wal")
	info, err := os.Stat(journal)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the journal in half: a clean frame boundary or a torn one,
	// recovery accepts both, but the second half's submissions are gone.
	if err := os.Truncate(journal, info.Size()/2); err != nil {
		t.Fatal(err)
	}
	if _, err := r.recover(nil, rep); err == nil {
		t.Fatal("recovery gate passed on a journal that lost acknowledged submissions")
	} else if !strings.Contains(err.Error(), "after recovery key") {
		t.Errorf("gate failed for another reason: %v", err)
	}
}
