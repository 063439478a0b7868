package federation_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// staticRouter routes job ID i to member i % n, ignoring all dynamic
// state. Chaos isolation tests use it so routing is provably identical
// between a run with an outage and a run without.
type staticRouter struct{ n int }

func (staticRouter) Name() string { return "static-mod" }

func (s staticRouter) Route(j *job.Job, views []federation.View, next int) int {
	want := j.ID % s.n
	for _, view := range views {
		if view.Index == want {
			return view.Index
		}
	}
	return views[0].Index
}

// TestFederationOutageStopsRouting kills every node of one member and
// asserts the front door routes around it: round-robin, which would
// otherwise alternate, must place every job on the surviving member,
// both for jobs arriving while the outage is active from t=0 and for
// jobs arriving mid-run after a delayed outage begins.
func TestFederationOutageStopsRouting(t *testing.T) {
	core.PanicOnInconsistency = true
	round := sim.DefaultOptions().RoundLength

	// Member 1 fully dark for the whole run.
	darkAll := func(i int) []sim.Failure {
		if i != 1 {
			return nil
		}
		fails := make([]sim.Failure, 15)
		for n := range fails {
			fails[n] = sim.Failure{Node: n, Start: 0, End: 1e12}
		}
		return fails
	}
	f := newFed(t, 2, "round-robin", darkAll)
	jobs := genJobs(t, 12, 1)
	for _, j := range jobs {
		if err := f.SubmitJob(j); err != nil {
			t.Fatal(err)
		}
		if idx, _ := f.Owner(j.ID); idx != 0 {
			t.Fatalf("job %d routed to dark member %d", j.ID, idx)
		}
	}
	for f.HasPendingEvents() {
		if err := f.ProcessNextEvent(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Finish(); err != nil {
		t.Fatal(err)
	}

	// Outage beginning mid-run and healing later: jobs submitted before
	// it may land on member 1, but jobs arriving while it is dark must
	// not; jobs stranded on member 1 resume after recovery.
	darkLater := func(i int) []sim.Failure {
		if i != 1 {
			return nil
		}
		fails := make([]sim.Failure, 15)
		for n := range fails {
			fails[n] = sim.Failure{Node: n, Start: 2 * round, End: 60 * round}
		}
		return fails
	}
	f = newFed(t, 2, "round-robin", darkLater)
	jobs = genJobs(t, 16, 2)
	routedToDark := false
	for _, j := range jobs[:8] {
		if err := f.SubmitJob(j); err != nil {
			t.Fatal(err)
		}
		if idx, _ := f.Owner(j.ID); idx == 1 {
			routedToDark = true
		}
	}
	if !routedToDark {
		t.Fatal("round-robin never used member 1 before the outage — test premise broken")
	}
	for f.Now() < 3*round && f.HasPendingEvents() {
		if err := f.ProcessNextEvent(); err != nil {
			t.Fatal(err)
		}
	}
	for _, j := range jobs[8:] {
		j.Arrival = f.Now()
		if err := f.SubmitJob(j); err != nil {
			t.Fatal(err)
		}
		if idx, _ := f.Owner(j.ID); idx != 0 {
			t.Fatalf("job %d arriving during the outage routed to dark member %d", j.ID, idx)
		}
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

// TestFederationOutageIsolation is the blast-radius guarantee: a
// partial outage inside one member must not perturb any other member's
// schedule. A static modulo router makes routing identical with and
// without the outage, so the surviving member's digest chain must be
// byte-identical across the two runs, while the failed member alone
// records the fault transitions — and the merged report's fault
// accounting must equal the per-member sums exactly.
func TestFederationOutageIsolation(t *testing.T) {
	core.PanicOnInconsistency = true
	round := sim.DefaultOptions().RoundLength
	numJobs := 32
	if testing.Short() {
		numJobs = 20
	}
	// Nodes 0-2 of member 1 down for rounds ~5..15.
	outage := func(i int) []sim.Failure {
		if i != 1 {
			return nil
		}
		return []sim.Failure{
			{Node: 0, Start: 5 * round, End: 15 * round},
			{Node: 1, Start: 5 * round, End: 15 * round},
			{Node: 2, Start: 5 * round, End: 15 * round},
		}
	}
	run := func(failures func(int) []sim.Failure) (*federation.FedSnapshot, *federation.Report) {
		r, err := federation.New(memberConfigs(2, failures), staticRouter{n: 2})
		if err != nil {
			t.Fatal(err)
		}
		fedDigestChain(t, r, genJobs(t, numJobs, 4))
		rep, err := r.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return r.Snapshot(), rep
	}
	baseSnap, baseRep := run(nil)
	chaosSnap, chaosRep := run(outage)

	if base, chaos := baseSnap.Members[0].Snap.Digest, chaosSnap.Members[0].Snap.Digest; base != chaos {
		t.Errorf("surviving member's digest changed under a peer's outage: %#x vs %#x", base, chaos)
	}
	if baseRep.Members[0].Report.Faults.Any() || baseRep.Members[1].Report.Faults.Any() {
		t.Error("baseline run recorded faults with no failures configured")
	}
	failed := chaosRep.Members[1].Report.Faults
	if failed.NodeDown == 0 {
		t.Error("failed member recorded no node-down transitions")
	}
	if chaosRep.Members[0].Report.Faults.Any() {
		t.Errorf("surviving member recorded faults: %+v", chaosRep.Members[0].Report.Faults)
	}
	var want metrics.FaultStats
	for _, mr := range chaosRep.Members {
		want.NodeDown += mr.Report.Faults.NodeDown
		want.NodeUp += mr.Report.Faults.NodeUp
		want.Recoveries += mr.Report.Faults.Recoveries
		want.LostIterations += mr.Report.Faults.LostIterations
	}
	got := chaosRep.Merged.Faults
	if got.NodeDown != want.NodeDown || got.NodeUp != want.NodeUp ||
		got.Recoveries != want.Recoveries ||
		math.Abs(got.LostIterations-want.LostIterations) > 1e-9 {
		t.Errorf("merged fault accounting %+v does not match per-member sum %+v", got, want)
	}
}
