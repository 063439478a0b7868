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
	return federation.View{Index: index, Name: "m", QueueDepth: queue, BestUp: bestUp, Eligible: true, Healthy: true}
}

// priced adds a dual-price quote to a view.
func priced(view federation.View, price float64) federation.View {
	view.Price = price
	view.HasPrice = true
	return view
}

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
	for alias, canonical := range map[string]string{"rr": "round-robin", "queue": "least-queue"} {
		r, err := federation.NewRouter(alias)
		if err != nil {
			t.Fatalf("NewRouter(%q): %v", alias, err)
		}
		if r.Name() != canonical {
			t.Errorf("NewRouter(%q).Name() = %q, want %q", alias, r.Name(), canonical)
		}
	}
	if _, err := federation.NewRouter("no-such-policy"); err == nil {
		t.Error("NewRouter accepted an unknown policy")
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

func TestPriceAwareOrdering(t *testing.T) {
	r := federation.PriceAware{}
	// Cheapest priced member wins.
	views := []federation.View{priced(v(0, 0, 0), 3.5), priced(v(1, 0, 0), 1.25), priced(v(2, 0, 0), 2)}
	if got := r.Route(rtJob, views, 0); got != 1 {
		t.Errorf("got member %d, want 1 (cheapest price)", got)
	}
	// A priced member beats an unpriced one even with a deeper queue.
	mixed := []federation.View{v(0, 0, 0), priced(v(1, 9, 0), 10)}
	if got := r.Route(rtJob, mixed, 0); got != 1 {
		t.Errorf("got member %d, want 1 (priced beats unpriced)", got)
	}
	// All unpriced → queue depth decides.
	unpriced := []federation.View{v(0, 4, 0), v(1, 1, 0)}
	if got := r.Route(rtJob, unpriced, 0); got != 1 {
		t.Errorf("got member %d, want 1 (unpriced falls back to queue)", got)
	}
	// Equal prices → queue depth, then lowest index.
	tied := []federation.View{priced(v(0, 2, 0), 1), priced(v(1, 2, 0), 1)}
	if got := r.Route(rtJob, tied, 0); got != 0 {
		t.Errorf("price tie broke to member %d, want 0", got)
	}
}
