package federation_test

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/federation"
	"repro/internal/job"
	"repro/internal/sim"
	"repro/internal/trace"
)

// goldenSeeds is the golden seed set for the federation differentials:
// every federation-of-one run over these seeds must reproduce the bare
// engine's digest chain byte for byte.
var goldenSeeds = []int64{1, 2, 3, 5, 7}

// genJobs generates the seeded trace used across the battery, sorted by
// (arrival, ID) so submission order is deterministic.
func genJobs(t *testing.T, numJobs int, seed int64) []*job.Job {
	t.Helper()
	cfg := trace.DefaultConfig()
	cfg.NumJobs = numJobs
	cfg.Seed = seed
	jobs, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(jobs, func(i, k int) bool {
		if jobs[i].Arrival != jobs[k].Arrival {
			return jobs[i].Arrival < jobs[k].Arrival
		}
		return jobs[i].ID < jobs[k].ID
	})
	return jobs
}

// memberConfigs builds n identical Hadar members, each with its own
// SimCluster, scheduler, and validated engine options. failures, when
// non-nil, supplies per-member outage windows.
func memberConfigs(n int, failures func(i int) []sim.Failure) []federation.MemberConfig {
	cfgs := make([]federation.MemberConfig, n)
	for i := range cfgs {
		opts := sim.ValidatedOptions()
		if failures != nil {
			opts.Failures = failures(i)
		}
		cfgs[i] = federation.MemberConfig{
			Name:      fmt.Sprintf("region%d", i),
			Cluster:   experiments.SimCluster(),
			Scheduler: core.New(core.DefaultOptions()),
			Sim:       opts,
		}
	}
	return cfgs
}

// newFed builds a federation over n fresh Hadar members with
// federation-level validation on.
func newFed(t *testing.T, n int, routerName string, failures func(i int) []sim.Failure) *federation.Federation {
	t.Helper()
	r, err := federation.NewRouter(routerName)
	if err != nil {
		t.Fatal(err)
	}
	f, err := federation.New(memberConfigs(n, failures), r)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// fedDigestChain submits the jobs up front and drives the federation to
// completion, recording the federation digest after every event that
// changed it. Finish must succeed (all member oracles and federation
// invariants hold).
func fedDigestChain(t *testing.T, f *federation.Federation, jobs []*job.Job) []uint64 {
	t.Helper()
	for _, j := range jobs {
		if err := f.SubmitJob(j); err != nil {
			t.Fatal(err)
		}
	}
	var chain []uint64
	last := f.Digest()
	for f.HasPendingEvents() {
		if err := f.ProcessNextEvent(); err != nil {
			t.Fatal(err)
		}
		if d := f.Digest(); d != last {
			chain = append(chain, d)
			last = d
		}
	}
	if _, err := f.Finish(); err != nil {
		t.Fatal(err)
	}
	return chain
}

// engineDigestChain is the bare-engine baseline for the federation-of-one
// differential: the same trace through one validated engine directly,
// recording the same per-round digest chain.
func engineDigestChain(t *testing.T, jobs []*job.Job) []uint64 {
	t.Helper()
	eng, err := sim.NewEngine(experiments.SimCluster(), core.New(core.DefaultOptions()), sim.ValidatedOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if err := eng.SubmitJob(j); err != nil {
			t.Fatal(err)
		}
	}
	var chain []uint64
	last := eng.Digest()
	for eng.HasPendingEvents() {
		if err := eng.ProcessNextEvent(); err != nil {
			t.Fatal(err)
		}
		if d := eng.Digest(); d != last {
			chain = append(chain, d)
			last = d
		}
	}
	if _, err := eng.Finish(); err != nil {
		t.Fatal(err)
	}
	return chain
}

// TestFederationOfOneMatchesBareEngine is the core correctness anchor:
// a 1-member federation is the identity wrapper. For every seed in the
// golden set, its per-round digest chain must be byte-identical to a
// bare engine's on the same trace — the front door, the router, the
// shared-clock loop, and the invariant sweeps must add zero scheduling
// behavior.
func TestFederationOfOneMatchesBareEngine(t *testing.T) {
	core.PanicOnInconsistency = true
	numJobs := 96
	if testing.Short() {
		numJobs = 32
	}
	for _, seed := range goldenSeeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			jobs := genJobs(t, numJobs, seed)
			want := engineDigestChain(t, genJobs(t, numJobs, seed))
			if len(want) == 0 {
				t.Fatal("bare engine produced no round digests")
			}
			for _, router := range federation.RouterNames() {
				got := fedDigestChain(t, newFed(t, 1, router, nil), jobs)
				if len(got) != len(want) {
					t.Fatalf("router %s: federation-of-one chain has %d digests, bare engine %d",
						router, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("router %s: chain diverges at digest %d: %#x vs %#x",
							router, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestFederationDeterminism is the golden-digest battery: every router
// policy × member count × seed, run twice from scratch, must reproduce
// the identical digest chain. Any map-iteration-order or shared-state
// leak in the router, the view builder, or the shared-clock loop fails
// here.
func TestFederationDeterminism(t *testing.T) {
	core.PanicOnInconsistency = true
	numJobs := 64
	seeds := []int64{1, 3}
	if testing.Short() {
		numJobs = 32
		seeds = seeds[:1]
	}
	for _, router := range federation.RouterNames() {
		for _, members := range []int{1, 2, 4} {
			for _, seed := range seeds {
				router, members, seed := router, members, seed
				name := fmt.Sprintf("%s/members%d/seed%d", router, members, seed)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					first := fedDigestChain(t, newFed(t, members, router, nil), genJobs(t, numJobs, seed))
					second := fedDigestChain(t, newFed(t, members, router, nil), genJobs(t, numJobs, seed))
					if len(first) == 0 {
						t.Fatal("run produced no digests")
					}
					if len(first) != len(second) {
						t.Fatalf("runs produced %d vs %d digests", len(first), len(second))
					}
					for i := range first {
						if first[i] != second[i] {
							t.Fatalf("digest chain diverges between identical runs at %d: %#x vs %#x",
								i, first[i], second[i])
						}
					}
				})
			}
		}
	}
}

// TestFederationSpreadsLoad sanity-checks that multi-member federations
// actually use more than one member: on the seed trace every built-in
// router must route at least one job to each of two members, and the
// merged report must conserve the job count.
func TestFederationSpreadsLoad(t *testing.T) {
	core.PanicOnInconsistency = true
	jobs := genJobs(t, 48, 1)
	for _, router := range federation.RouterNames() {
		router := router
		t.Run(router, func(t *testing.T) {
			t.Parallel()
			f := newFed(t, 2, router, nil)
			fedDigestChain(t, f, genJobs(t, 48, 1))
			perMember := make([]int, 2)
			for _, j := range jobs {
				idx, ok := f.Owner(j.ID)
				if !ok {
					t.Fatalf("job %d has no owner", j.ID)
				}
				perMember[idx]++
			}
			for i, n := range perMember {
				if n == 0 {
					t.Errorf("router %s never placed a job on member %d", router, i)
				}
			}
			rep, err := f.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if got := len(rep.Merged.Jobs); got != len(jobs) {
				t.Errorf("merged report has %d jobs, submitted %d", got, len(jobs))
			}
		})
	}
}

// TestFederationMergedReport pins the merge semantics: member job
// results concatenate, GPU totals and round counters sum, makespan is
// the max, and every submitted job completes exactly once across the
// federation.
func TestFederationMergedReport(t *testing.T) {
	core.PanicOnInconsistency = true
	jobs := genJobs(t, 48, 2)
	f := newFed(t, 2, "least-queue", nil)
	fedDigestChain(t, f, jobs)
	rep, err := f.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Members) != 2 {
		t.Fatalf("expected 2 member reports, got %d", len(rep.Members))
	}
	wantJobs, wantGPUs, wantRounds := 0, 0, 0
	var wantMakespan float64
	for _, mr := range rep.Members {
		wantJobs += len(mr.Report.Jobs)
		wantGPUs += mr.Report.TotalGPUs
		wantRounds += mr.Report.Rounds
		if mr.Report.Makespan > wantMakespan {
			wantMakespan = mr.Report.Makespan
		}
	}
	m := rep.Merged
	if len(m.Jobs) != wantJobs || wantJobs != len(jobs) {
		t.Errorf("merged jobs %d, member sum %d, submitted %d", len(m.Jobs), wantJobs, len(jobs))
	}
	if m.TotalGPUs != wantGPUs {
		t.Errorf("merged TotalGPUs %d, member sum %d", m.TotalGPUs, wantGPUs)
	}
	if m.Rounds != wantRounds {
		t.Errorf("merged Rounds %d, member sum %d", m.Rounds, wantRounds)
	}
	if m.Makespan < wantMakespan {
		t.Errorf("merged makespan %v below member max %v", m.Makespan, wantMakespan)
	}
	for i := 1; i < len(m.Jobs); i++ {
		if m.Jobs[i-1].ID >= m.Jobs[i].ID {
			t.Fatalf("merged jobs not sorted by unique ID: %d then %d", m.Jobs[i-1].ID, m.Jobs[i].ID)
		}
	}
}

// TestFederationSnapshot exercises the copy-on-publish read path:
// aggregate counts sum the members, owners resolve, and FindJob walks
// a job from pending through finished.
func TestFederationSnapshot(t *testing.T) {
	core.PanicOnInconsistency = true
	jobs := genJobs(t, 24, 1)
	f := newFed(t, 2, "round-robin", nil)
	for _, j := range jobs {
		if err := f.SubmitJob(j); err != nil {
			t.Fatal(err)
		}
	}
	snap := f.Snapshot()
	if snap.Pending != len(jobs) {
		t.Errorf("pre-run snapshot pending %d, want %d", snap.Pending, len(jobs))
	}
	if snap.TotalGPUs != 2*experiments.SimCluster().TotalGPUs() {
		t.Errorf("snapshot TotalGPUs %d, want %d", snap.TotalGPUs, 2*experiments.SimCluster().TotalGPUs())
	}
	for f.HasPendingEvents() {
		if err := f.ProcessNextEvent(); err != nil {
			t.Fatal(err)
		}
	}
	snap = f.Snapshot()
	if snap.Completed != len(jobs) || snap.Active != 0 || snap.Pending != 0 {
		t.Errorf("final snapshot completed=%d active=%d pending=%d, want %d/0/0",
			snap.Completed, snap.Active, snap.Pending, len(jobs))
	}
	if snap.Digest != f.Digest() {
		t.Errorf("snapshot digest %#x, federation digest %#x", snap.Digest, f.Digest())
	}
	for _, j := range jobs {
		member, phase, js, res, ok := snap.FindJob(j.ID)
		if !ok {
			t.Fatalf("FindJob(%d) not found", j.ID)
		}
		idx, _ := f.Owner(j.ID)
		if member != snap.Members[idx].Name {
			t.Errorf("FindJob(%d) member %q, owner is %q", j.ID, member, snap.Members[idx].Name)
		}
		if phase != "finished" {
			t.Errorf("FindJob(%d) phase %q, want finished", j.ID, phase)
		}
		if js != nil {
			t.Errorf("FindJob(%d) returned live detail for a finished job", j.ID)
		}
		if res == nil || res.ID != j.ID {
			t.Errorf("FindJob(%d) missing final result", j.ID)
		}
	}
	if _, _, _, _, ok := snap.FindJob(1 << 30); ok {
		t.Error("FindJob resolved a job the federation never accepted")
	}
	if snap.Member("no-such-region") != nil {
		t.Error("Member lookup resolved an unknown name")
	}
}

// TestFederationConstructorValidation pins the New error paths: empty
// federations, nil routers, and members sharing a cluster or scheduler
// instance are all rejected up front.
func TestFederationConstructorValidation(t *testing.T) {
	rr, err := federation.NewRouter("round-robin")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := federation.New(nil, rr); err == nil {
		t.Error("New accepted zero members")
	}
	if _, err := federation.New(memberConfigs(1, nil), nil); err == nil {
		t.Error("New accepted a nil router")
	}
	shared := memberConfigs(2, nil)
	shared[1].Cluster = shared[0].Cluster
	if _, err := federation.New(shared, rr); err == nil {
		t.Error("New accepted two members sharing a cluster")
	}
	shared = memberConfigs(2, nil)
	shared[1].Scheduler = shared[0].Scheduler
	if _, err := federation.New(shared, rr); err == nil {
		t.Error("New accepted two members sharing a scheduler")
	}
	missing := memberConfigs(1, nil)
	missing[0].Scheduler = nil
	if _, err := federation.New(missing, rr); err == nil {
		t.Error("New accepted a member without a scheduler")
	}
}

// TestFederationFrontDoorErrors pins the submission/cancel error paths:
// duplicate IDs, unroutable jobs, cancels of unknown jobs, and a router
// returning an out-of-range index.
func TestFederationFrontDoorErrors(t *testing.T) {
	jobs := genJobs(t, 4, 1)
	f := newFed(t, 2, "least-queue", nil)
	if err := f.SubmitJob(jobs[0]); err != nil {
		t.Fatal(err)
	}
	if err := f.SubmitJob(jobs[0]); err == nil {
		t.Error("duplicate job ID accepted")
	}
	if err := f.CancelJob(1 << 30); err == nil {
		t.Error("cancel of unknown job accepted")
	}
	if err := f.CancelJob(jobs[0].ID); err != nil {
		t.Errorf("cancel of owned job failed: %v", err)
	}
	huge := *jobs[1]
	huge.Workers = 10000
	if err := f.SubmitJob(&huge); err == nil {
		t.Error("unplaceable job accepted")
	}

	bad, err := federation.New(memberConfigs(2, nil), badRouter{})
	if err != nil {
		t.Fatal(err)
	}
	if err := bad.SubmitJob(jobs[2]); err == nil {
		t.Error("router picking an invalid member index not rejected")
	}
}

// badRouter always returns an out-of-range member index.
type badRouter struct{}

func (badRouter) Name() string                                            { return "bad" }
func (badRouter) Route(j *job.Job, views []federation.View, next int) int { return 99 }

// TestFederationCancelForwarding submits jobs to a 2-member federation,
// cancels a subset mid-run through the front door, and checks the
// owning members retire exactly those jobs while the invariant sweeps
// (which tolerate cancellations) stay green.
func TestFederationCancelForwarding(t *testing.T) {
	core.PanicOnInconsistency = true
	jobs := genJobs(t, 24, 3)
	f := newFed(t, 2, "round-robin", nil)
	for _, j := range jobs {
		if err := f.SubmitJob(j); err != nil {
			t.Fatal(err)
		}
	}
	cancelled := map[int]bool{jobs[5].ID: true, jobs[11].ID: true}
	steps := 0
	for f.HasPendingEvents() {
		if err := f.ProcessNextEvent(); err != nil {
			t.Fatal(err)
		}
		steps++
		if steps == 3 {
			for _, j := range jobs[:12] {
				if cancelled[j.ID] {
					if err := f.CancelJob(j.ID); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if steps%8 == 0 {
			if err := f.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
	}
	rep, err := f.Finish()
	if err != nil {
		t.Fatal(err)
	}
	snap := f.Snapshot()
	for _, j := range jobs {
		_, phase, _, _, ok := snap.FindJob(j.ID)
		if !ok {
			t.Fatalf("job %d unknown after run", j.ID)
		}
		want := sim.JobFinished.String()
		if cancelled[j.ID] {
			want = sim.JobCancelled.String()
		}
		if phase != want {
			t.Errorf("job %d phase %v, want %v", j.ID, phase, want)
		}
	}
	if got := len(rep.Merged.Jobs); got != len(jobs)-len(cancelled) {
		t.Errorf("merged report has %d completed jobs, want %d", got, len(jobs)-len(cancelled))
	}
}

// TestFederationStepAndPeek exercises the shared-clock surface: the
// federation's next-event time is the min over members, an idle
// federation reports no pending events and steps as a no-op, and Now
// never exceeds the furthest member.
func TestFederationStepAndPeek(t *testing.T) {
	core.PanicOnInconsistency = true
	f := newFed(t, 3, "round-robin", nil)
	if _, ok := f.PeekNextEventTime(); ok {
		t.Error("idle federation reported a next event")
	}
	if f.HasPendingEvents() {
		t.Error("idle federation reported pending events")
	}
	if err := f.ProcessNextEvent(); err != nil {
		t.Errorf("idle ProcessNextEvent = %v, want nil", err)
	}
	for _, j := range genJobs(t, 12, 1) {
		if err := f.SubmitJob(j); err != nil {
			t.Fatal(err)
		}
	}
	tNext, ok := f.PeekNextEventTime()
	if !ok {
		t.Fatal("loaded federation reported no next event")
	}
	if now := f.Now(); tNext < now {
		t.Errorf("next event %v before shared clock %v", tNext, now)
	}
	for f.HasPendingEvents() {
		if err := f.ProcessNextEvent(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Finish(); err != nil {
		t.Fatal(err)
	}
}
