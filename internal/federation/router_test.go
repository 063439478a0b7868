package federation_test

import (
	"testing"

	"repro/internal/federation"
	"repro/internal/job"
)

// rtJob is a placeholder job for router unit tests; the built-in
// policies route on views, not job internals.
var rtJob = &job.Job{ID: 1, Workers: 2}

// v builds a minimal candidate view for router unit tests.
func v(index, queue, bestUp int) federation.View {
	return federation.View{Index: index, QueueDepth: queue, BestUp: bestUp, Eligible: true, Healthy: true}
}

// TestNewRouterNamesAndAliases: every listed name builds the router of
// that name, and nothing else builds one — no alias, no retired policy.
func TestNewRouterNamesAndAliases(t *testing.T) {
	for _, name := range federation.RouterNames() {
		r, err := federation.NewRouter(name)
		if err != nil {
			t.Fatalf("NewRouter(%q): %v", name, err)
		}
		if r.Name() != name {
			t.Errorf("NewRouter(%q).Name() = %q", name, r.Name())
		}
	}
	for _, name := range []string{"no-such-policy", "queue", "round_robin", "price"} {
		if _, err := federation.NewRouter(name); err == nil {
			t.Errorf("NewRouter accepted %q", name)
		}
	}
}

// TestRoundRobinCycles pins the rotation, with the cursor advanced the
// way the federation advances it (one past the accepted pick): with all
// members present the picks cycle 0,1,2,0,...; when the cursor's member
// is filtered out the next candidate at or after it is taken; past the
// end it wraps. The router itself holds no cursor: the same arguments
// give the same pick.
func TestRoundRobinCycles(t *testing.T) {
	r := federation.RoundRobin{}
	all := []federation.View{v(0, 0, 0), v(1, 0, 0), v(2, 0, 0)}
	next := 0
	for i, w := range []int{0, 1, 2, 0, 1} {
		got := r.Route(rtJob, all, next)
		if again := r.Route(rtJob, all, next); got != w || again != got {
			t.Fatalf("pick %d: got member %d then %d, want %d both times", i, got, again, w)
		}
		next = got + 1
	}
	// Member 1 missing from the candidates: the cursor skips to 2, then
	// wraps to 0.
	partial := []federation.View{v(0, 0, 0), v(2, 0, 0)}
	next = 0
	for i, w := range []int{0, 2, 0, 2} {
		got := r.Route(rtJob, partial, next)
		if got != w {
			t.Fatalf("partial pick %d: got member %d, want %d", i, got, w)
		}
		next = got + 1
	}
}

func TestLeastQueuePicksShallowest(t *testing.T) {
	r := federation.LeastQueue{}
	views := []federation.View{v(0, 5, 0), v(1, 2, 0), v(2, 7, 0)}
	if got := r.Route(rtJob, views, 0); got != 1 {
		t.Errorf("got member %d, want 1 (shallowest queue)", got)
	}
	// Ties keep the lowest index.
	tied := []federation.View{v(0, 3, 0), v(1, 3, 0)}
	if got := r.Route(rtJob, tied, 0); got != 0 {
		t.Errorf("tie broke to member %d, want 0", got)
	}
}

func TestAffinityPicksBestCapacity(t *testing.T) {
	r := federation.Affinity{}
	views := []federation.View{v(0, 0, 4), v(1, 0, 12), v(2, 0, 8)}
	if got := r.Route(rtJob, views, 0); got != 1 {
		t.Errorf("got member %d, want 1 (most best-type devices up)", got)
	}
	// Equal capacity falls back to queue depth, then index.
	tied := []federation.View{v(0, 5, 8), v(1, 2, 8), v(2, 2, 8)}
	if got := r.Route(rtJob, tied, 0); got != 1 {
		t.Errorf("got member %d, want 1 (capacity tie, shallower queue)", got)
	}
}
