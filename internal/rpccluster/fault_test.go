package rpccluster

import (
	"flag"
	"fmt"
	"io"
	"net/rpc"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/sched"
)

// chaosSeeds enables the seed-matrix sweep (make chaos):
//
//	go test -race -run TestChaosMatrix ./internal/rpccluster -args -chaosseeds=5
var chaosSeeds = flag.Int("chaosseeds", 0, "run the chaos seed matrix over this many seeds")

func faultJob(id, workers int, iters, arrival float64) *job.Job {
	return &job.Job{
		ID: id, Name: "chaos", Model: "unit-test", Workers: workers,
		Epochs: int(iters), ItersPerEpoch: 1, Arrival: arrival,
		Throughput: job.Rates{gpu.V100: 10, gpu.P100: 6, gpu.K80: 2},
	}
}

func TestTransientClassification(t *testing.T) {
	cases := []struct {
		err       error
		transient bool
	}{
		{nil, false},
		{rpc.ServerError("rpccluster: node 1 does not host job 3"), false},
		{&timeoutError{node: 0, method: "Progress", limit: time.Second}, true},
		{io.EOF, true},
		{rpc.ErrShutdown, true},
		{errNotConnected, true},
		{errInjectedDrop, true},
	}
	for _, tc := range cases {
		if got := Transient(tc.err); got != tc.transient {
			t.Errorf("Transient(%v) = %v, want %v", tc.err, got, tc.transient)
		}
	}
	if !IsTimeout(&timeoutError{}) || IsTimeout(io.EOF) {
		t.Error("IsTimeout misclassifies")
	}
}

func TestRetryBackoffBounds(t *testing.T) {
	p := RetryPolicy{}.normalize()
	if p.MaxAttempts < 2 {
		t.Fatalf("default policy does not retry: %+v", p)
	}
	for attempt := 1; attempt <= 10; attempt++ {
		for _, jitter := range []float64{0, 0.5, 0.999} {
			d := p.backoff(attempt, jitter)
			if d < p.BaseDelay/2 || d > p.MaxDelay {
				t.Errorf("backoff(%d, %v) = %v outside [%v, %v]",
					attempt, jitter, d, p.BaseDelay/2, p.MaxDelay)
			}
		}
	}
}

func TestHealthTracker(t *testing.T) {
	h := newHealth(2, 2)
	if h.fail(0) {
		t.Error("single failure marked node down (threshold 2)")
	}
	if !h.fail(0) {
		t.Error("second consecutive failure did not mark node down")
	}
	if !h.isDown(0) || h.isDown(1) {
		t.Errorf("isDown = %v, %v, want only node 0 down", h.isDown(0), h.isDown(1))
	}
	cameUp, restarted, sync := h.ok(0, 42)
	if !cameUp || restarted || !sync {
		t.Errorf("recovery probe: cameUp=%v restarted=%v sync=%v", cameUp, restarted, sync)
	}
	// A one-off failure heals without a transition but requests a sync.
	h.fail(1)
	if _, _, sync := h.ok(1, 7); !sync {
		t.Error("post-failure probe did not request a state sync")
	}
	// Incarnation change while up = silent worker restart.
	if _, restarted, _ := h.ok(1, 8); !restarted {
		t.Error("incarnation change not detected as restart")
	}
	if _, restarted, _ := h.ok(1, 8); restarted {
		t.Error("stable incarnation reported as restart")
	}
}

// blockingTransport parks every call until released; for deadline tests.
type blockingTransport struct{ release chan struct{} }

func (b *blockingTransport) Call(int, string, interface{}, interface{}) error {
	<-b.release
	return nil
}
func (b *blockingTransport) Reconnect(int) error { return nil }
func (b *blockingTransport) Close() error        { return nil }

func TestCallDeadlineExpires(t *testing.T) {
	bt := &blockingTransport{release: make(chan struct{})}
	defer close(bt.release)
	specs := []NodeSpec{{Addr: "unused", GPU: gpu.V100, Devices: 1}}
	opts := DefaultOptions()
	opts.Transport = bt
	opts.CallTimeout = 20 * time.Millisecond
	opts.Retry = RetryPolicy{MaxAttempts: 1, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond}
	ctl, err := NewController(core.New(core.DefaultOptions()), specs, opts)
	if err != nil {
		t.Fatal(err)
	}
	errCall := ctl.call(0, "Ping", PingArgs{}, &PingReply{})
	if !IsTimeout(errCall) {
		t.Fatalf("blocked call returned %v, want timeout", errCall)
	}
	if ctl.faults.RPCTimeouts != 1 {
		t.Errorf("RPCTimeouts = %d, want 1", ctl.faults.RPCTimeouts)
	}
}

func TestCallRetriesDrops(t *testing.T) {
	specs, cleanupWorkers := startWorkers(t, []gpu.Type{gpu.V100}, 2, 1000)
	defer cleanupWorkers()
	inner, err := NewDialTransport([]string{specs[0].Addr}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	chaos := NewChaos(inner, ChaosOptions{Seed: 3, DropProb: 1})
	opts := DefaultOptions()
	opts.TimeScale = 1000
	opts.Transport = chaos
	opts.Retry = RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	ctl, err := NewController(core.New(core.DefaultOptions()), specs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	if err := ctl.call(0, "Ping", PingArgs{}, &PingReply{}); err == nil || !Transient(err) {
		t.Fatalf("fully dropped call returned %v, want transient error", err)
	}
	if ctl.faults.RPCRetries != 2 {
		t.Errorf("RPCRetries = %d, want 2 (3 attempts)", ctl.faults.RPCRetries)
	}
	// With drops off, the same controller recovers on the same channel.
	chaos.opts.DropProb = 0
	var pr PingReply
	if err := ctl.call(0, "Ping", PingArgs{}, &pr); err != nil {
		t.Fatalf("clean call failed: %v", err)
	}
	if pr.Incarnation == 0 {
		t.Error("ping reply missing incarnation")
	}
}

// TestReleaseJobRemainingSemantics pins the remaining-update rule of
// releaseJob: the preempt reply carries *completed* iterations, so the
// job's new Remaining is total minus that — and it only ever shrinks
// (a stale reply can never resurrect finished work).
func TestReleaseJobRemainingSemantics(t *testing.T) {
	specs, cleanupWorkers := startWorkers(t, []gpu.Type{gpu.V100}, 2, 1000)
	defer cleanupWorkers()
	opts := DefaultOptions()
	opts.TimeScale = 1000
	ctl, err := NewController(core.New(core.DefaultOptions()), specs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()

	j := faultJob(1, 1, 1e9, 0)
	st := &sched.JobState{
		Job: j, Remaining: j.TotalIters(),
		Alloc: cluster.Alloc{{Node: 0, Type: gpu.V100, Count: 1}},
	}
	if err := ctl.launchJob(st, 0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond) // ~30 sim-seconds of progress
	if err := ctl.releaseJob(st, 30); err != nil {
		t.Fatal(err)
	}
	done := j.TotalIters() - st.Remaining
	if done <= 0 {
		t.Fatalf("release kept no progress: remaining %v of %v", st.Remaining, j.TotalIters())
	}
	if diff := ctl.lastCkpt[1] - done; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("checkpoint %v != completed iterations %v", ctl.lastCkpt[1], done)
	}
	// A second (stale, idempotent) release must not move Remaining back.
	before := st.Remaining
	if err := ctl.releaseJob(st, 31); err != nil {
		t.Fatal(err)
	}
	if st.Remaining > before {
		t.Errorf("remaining regressed: %v -> %v", before, st.Remaining)
	}
}

// failingSched places the job once, then violates the gang constraint
// to force a mid-run controller error.
type failingSched struct{ rounds int }

func (s *failingSched) Name() string { return "failing" }
func (s *failingSched) Schedule(ctx *sched.Context) map[int]cluster.Alloc {
	s.rounds++
	out := map[int]cluster.Alloc{}
	for _, st := range ctx.Jobs {
		if s.rounds == 1 {
			out[st.Job.ID] = cluster.Alloc{{Node: 0, Type: gpu.V100, Count: st.Job.Workers}}
		} else {
			// Gang violation: nonzero but less than Workers.
			out[st.Job.ID] = cluster.Alloc{{Node: 0, Type: gpu.V100, Count: st.Job.Workers - 1}}
		}
	}
	return out
}

// TestRunCleansUpOnError verifies the error-path leak fix: a mid-run
// failure must preempt the tasks already launched on workers instead
// of leaving them running forever.
func TestRunCleansUpOnError(t *testing.T) {
	const timeScale = 36000
	w := NewWorker(0, 2, timeScale)
	h, err := Serve("127.0.0.1:0", w)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	specs := []NodeSpec{{Addr: h.Addr, GPU: gpu.V100, Devices: 2, Speed: 1}}
	opts := DefaultOptions()
	opts.TimeScale = timeScale
	ctl, err := NewController(&failingSched{}, specs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()

	if _, err := ctl.Run([]*job.Job{faultJob(1, 2, 1e9, 0)}); err == nil {
		t.Fatal("run with gang-violating scheduler succeeded")
	}
	// In-process check: the worker must be drained despite the error.
	var st StatusReply
	if err := w.Status(StatusArgs{}, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Jobs) != 0 || st.FreeDevices != st.Capacity {
		t.Errorf("worker leaked tasks after controller error: %+v", st)
	}
}

// chaosHarness runs the full control plane under injected RPC drops,
// latency, and one worker crash + restart, and returns the report plus
// the final worker set for drain checks.
func runChaos(t *testing.T, seed int64) {
	t.Helper()
	const timeScale = 36000 // 10 ms real per 6-minute round
	types := []gpu.Type{gpu.V100, gpu.P100, gpu.K80}

	var mu sync.Mutex
	workers := make([]*Worker, len(types))
	handles := make([]*Handle, len(types))
	var specs []NodeSpec
	for i, typ := range types {
		w := NewWorker(i, 2, timeScale)
		h, err := Serve("127.0.0.1:0", w)
		if err != nil {
			t.Fatal(err)
		}
		workers[i], handles[i] = w, h
		specs = append(specs, NodeSpec{Addr: h.Addr, GPU: typ, Devices: 2, Speed: 1})
	}
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		for _, h := range handles {
			h.Close()
		}
	}()

	inner, err := NewDialTransport([]string{specs[0].Addr, specs[1].Addr, specs[2].Addr}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	chaos := NewChaos(inner, ChaosOptions{
		Seed:        seed,
		DropProb:    0.05,
		LatencyProb: 0.05,
		MaxLatency:  40 * time.Millisecond,
	})
	opts := DefaultOptions()
	opts.TimeScale = timeScale
	opts.Transport = chaos
	opts.CallTimeout = 25 * time.Millisecond
	opts.Retry = RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond}
	opts.ProbeThreshold = 2
	opts.FaultSeed = seed
	ctl, err := NewController(core.New(core.DefaultOptions()), specs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()

	var jobs []*job.Job
	for i := 0; i < 5; i++ {
		// 2-4 simulated hours of work each, staggered arrivals.
		jobs = append(jobs, faultJob(i, 1+i%2, 80000+20000*float64(i), float64(i)*300))
	}

	// Crash worker 0 (the V100 node, always occupied) mid-run and
	// restart a fresh process on the same address: in-memory tasks are
	// lost, exactly like a real agent crash.
	crashDone := make(chan error, 1)
	go func() {
		time.Sleep(150 * time.Millisecond)
		chaos.Crash(0)
		mu.Lock()
		addr := handles[0].Addr
		handles[0].Close()
		mu.Unlock()
		time.Sleep(150 * time.Millisecond)
		w := NewWorker(0, 2, timeScale)
		h, err := Serve(addr, w)
		if err != nil {
			chaos.Restore(0)
			crashDone <- err
			return
		}
		mu.Lock()
		workers[0], handles[0] = w, h
		mu.Unlock()
		chaos.Restore(0)
		crashDone <- nil
	}()

	report, err := ctl.Run(jobs)
	if herr := <-crashDone; herr != nil {
		t.Fatalf("worker restart failed: %v", herr)
	}
	if err != nil {
		t.Fatalf("chaos run did not complete: %v", err)
	}
	if len(report.Jobs) != len(jobs) {
		t.Fatalf("completed %d of %d jobs", len(report.Jobs), len(jobs))
	}
	for i, jr := range report.Jobs {
		if jr.TotalIters != jobs[i].TotalIters() {
			t.Errorf("job %d finished %v of %v iterations", jr.ID, jr.TotalIters, jobs[i].TotalIters())
		}
		if jr.Finish < jr.Start || jr.Start < jr.Arrival {
			t.Errorf("job %d has inconsistent timeline: %+v", jr.ID, jr)
		}
	}
	f := report.Faults
	if f.RPCRetries == 0 {
		t.Error("no RPC retries recorded under drop injection")
	}
	if f.NodeDown == 0 || f.NodeUp == 0 {
		t.Errorf("node transitions = %d down / %d up, want both nonzero", f.NodeDown, f.NodeUp)
	}
	if f.Recoveries == 0 {
		t.Error("no job recoveries recorded despite a worker crash")
	}
	if f.LostIterations <= 0 {
		t.Errorf("lost iterations = %v, want > 0 (progress past checkpoint was discarded)", f.LostIterations)
	}
	drops, _ := chaos.Stats()
	if drops == 0 {
		t.Error("chaos transport dropped nothing")
	}
	// Every worker drained after the run.
	mu.Lock()
	defer mu.Unlock()
	for i, w := range workers {
		var st StatusReply
		if err := w.Status(StatusArgs{}, &st); err != nil {
			t.Fatal(err)
		}
		if len(st.Jobs) != 0 || st.FreeDevices != st.Capacity {
			t.Errorf("worker %d not drained: %+v", i, st)
		}
	}
}

// TestChaosRecovery is the always-on chaos gate (part of make check):
// one seed, full drop/latency/crash/restart treatment.
func TestChaosRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run takes ~2s of wall clock")
	}
	runChaos(t, 1)
}

// TestChaosMatrix sweeps a seed matrix (make chaos).
func TestChaosMatrix(t *testing.T) {
	if *chaosSeeds == 0 {
		t.Skip("enable with -args -chaosseeds=N (make chaos)")
	}
	for seed := int64(1); seed <= int64(*chaosSeeds); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runChaos(t, seed) })
	}
}

// TestChaosPassThroughIsFaultFree pins the zero-fault regression: a
// chaos transport with no injection behaves exactly like the plain
// transport and the report carries all-zero fault counters.
func TestChaosPassThroughIsFaultFree(t *testing.T) {
	specs, cleanupWorkers := startWorkers(t, []gpu.Type{gpu.V100, gpu.K80}, 2, 72000)
	defer cleanupWorkers()
	inner, err := NewDialTransport([]string{specs[0].Addr, specs[1].Addr}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.TimeScale = 72000
	opts.Transport = NewChaos(inner, ChaosOptions{Seed: 9})
	ctl, err := NewController(core.New(core.DefaultOptions()), specs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	report, err := ctl.Run([]*job.Job{faultJob(0, 2, 50000, 0), faultJob(1, 1, 30000, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Jobs) != 2 {
		t.Fatalf("completed %d of 2 jobs", len(report.Jobs))
	}
	if report.Faults.Any() {
		t.Errorf("fault counters nonzero on a clean run: %+v", report.Faults)
	}
}
