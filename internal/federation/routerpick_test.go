package federation_test

import (
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/federation"
	"repro/internal/job"
	"repro/internal/sim"
)

// TestRouteJobNoEligibleMember pins the empty-eligible-set path: a job
// whose gang exceeds every member's usable capacity must be rejected
// at routing time with a diagnosis, not forwarded to a router with an
// empty candidate slice.
func TestRouteJobNoEligibleMember(t *testing.T) {
	f := newFed(t, 3, "least-queue", nil)
	j := genJobs(t, 1, 11)[0]
	j.Workers = 1 << 20 // no member holds a million usable devices
	if _, err := f.RouteJob(j); err == nil {
		t.Fatal("RouteJob placed a job no member can ever hold")
	} else if !strings.Contains(err.Error(), "no member can ever place") {
		t.Fatalf("RouteJob error = %v, want the no-eligible-member diagnosis", err)
	}
}

// allDown builds an outage covering every node of the test cluster for
// the whole run, so each member is eligible but never healthy.
func allDown() []sim.Failure {
	var fails []sim.Failure
	for _, n := range experiments.SimCluster().Nodes() {
		fails = append(fails, sim.Failure{Node: n.ID, Start: 0, End: 1e12})
	}
	return fails
}

// TestRouteJobAllUnhealthyFallsBack pins the outage fallback: when an
// outage takes every eligible member's nodes down, RouteJob must fall
// back to the full eligible set (the job queues at its member) rather
// than reject the job or hand the router an empty slice.
func TestRouteJobAllUnhealthyFallsBack(t *testing.T) {
	f := newFed(t, 3, "least-queue", func(i int) []sim.Failure { return allDown() })
	j := genJobs(t, 1, 12)[0]
	idx, err := f.RouteJob(j)
	if err != nil {
		t.Fatalf("RouteJob with every member unhealthy: %v", err)
	}
	// least-queue over identical idle members tie-breaks to the lowest
	// index; the fallback must preserve that determinism.
	if idx != 0 {
		t.Fatalf("RouteJob picked member %d, want deterministic fallback pick 0", idx)
	}
	if err := f.SubmitJob(j); err != nil {
		t.Fatalf("SubmitJob through the unhealthy fallback: %v", err)
	}
	if owner, ok := f.Owner(j.ID); !ok || owner != 0 {
		t.Fatalf("Owner(%d) = %d,%v, want 0,true", j.ID, owner, ok)
	}
}

// rogueRouter returns a constant out-of-range pick, exercising the
// federation's router-output validation.
type rogueRouter struct{ pick int }

func (r rogueRouter) Name() string { return "rogue" }
func (r rogueRouter) Route(j *job.Job, views []federation.View, next int) int {
	return r.pick
}

// TestRouteJobValidatesRouterPick pins the guard between the router
// contract and the member slice: an out-of-range pick must surface as
// an error naming the router, never index into the members.
func TestRouteJobValidatesRouterPick(t *testing.T) {
	for _, pick := range []int{-1, 3, 99} {
		r := rogueRouter{pick: pick}
		f, err := federation.New(memberConfigs(3, nil), r)
		if err != nil {
			t.Fatal(err)
		}
		j := genJobs(t, 1, 13)[0]
		if _, err := f.RouteJob(j); err == nil {
			t.Fatalf("RouteJob accepted out-of-range pick %d", pick)
		} else if !strings.Contains(err.Error(), "picked invalid member") {
			t.Fatalf("RouteJob error = %v, want invalid-pick diagnosis", err)
		}
	}
}

// TestAffinityTieBreak pins Affinity's documented tie order: most
// BestUp capacity first, then shallower queue, then lowest index.
func TestAffinityTieBreak(t *testing.T) {
	r := federation.Affinity{}
	cases := []struct {
		name  string
		views []federation.View
		want  int
	}{
		{"queue breaks equal capacity", []federation.View{v(0, 5, 8), v(1, 2, 8), v(2, 4, 8)}, 1},
		{"index breaks full tie", []federation.View{v(0, 3, 8), v(1, 3, 8), v(2, 3, 8)}, 0},
		{"capacity dominates queue", []federation.View{v(0, 0, 2), v(1, 9, 3)}, 1},
		{"later equal view never displaces", []federation.View{v(1, 3, 8), v(0, 3, 8)}, 1},
	}
	for _, tc := range cases {
		if got := r.Route(rtJob, tc.views, 0); got != tc.want {
			t.Errorf("%s: Route = %d, want %d", tc.name, got, tc.want)
		}
	}
}
