package federation

import (
	"fmt"

	"repro/internal/gpu"
	"repro/internal/job"
)

// View is the routing-relevant state of one member at submission time.
// Views are built per job: capacity fields are restricted to the job's
// usable accelerator types, so a router never places a job on capacity
// the job cannot run on.
type View struct {
	// Index is the member's index in the federation.
	Index int
	// QueueDepth is the member's pending + active job count — the
	// backlog an arriving job queues behind.
	QueueDepth int
	// UsableTotal counts devices of the job's usable types across all
	// nodes; UsableUp restricts that to nodes not currently inside a
	// failure window; BestUp further restricts to the job's fastest
	// usable type.
	UsableTotal int
	UsableUp    int
	BestUp      int
	// Eligible means the member could ever place the job (enough
	// usable devices exist); Healthy means it could place it on nodes
	// that are up right now. The federation only shows routers
	// eligible views, preferring healthy ones.
	Eligible bool
	Healthy  bool
}

// view builds the member's routing view, at the shared clock's current
// time, for a job of the given gang size and per-type throughput
// (speed[t] > 0 marks a usable type), in O(types + failure windows).
func (m *member) view(idx, workers int, speed *[gpu.NumTypes]float64, now float64) View {
	v := View{Index: idx, QueueDepth: m.eng.PendingJobs() + m.eng.ActiveJobs()}
	up := m.upAt(now)
	best := 0.0
	for t := gpu.Type(0); t < gpu.NumTypes; t++ {
		if speed[t] <= 0 {
			continue
		}
		v.UsableTotal += m.typeTotal[t]
		v.UsableUp += up[t]
		if speed[t] > best {
			best, v.BestUp = speed[t], up[t]
		}
	}
	v.Eligible = v.UsableTotal >= workers
	v.Healthy = v.UsableUp >= workers
	return v
}

// upAt is the per-type device count on nodes outside every configured
// failure window at the given instant, mirroring the engine's
// scheduler-visible outage view (a node is down when a window covers
// [now, now+epsilon)).
func (m *member) upAt(now float64) [gpu.NumTypes]int {
	up := m.typeTotal
	down := -1 // the node last subtracted; outages are ordered by node
	for _, w := range m.outages {
		if w.Node == down || w.Start >= now+1e-9 || w.End <= now {
			continue
		}
		down = w.Node
		for t := gpu.Type(0); t < gpu.NumTypes; t++ {
			up[t] -= m.cfg.Cluster.Capacity(w.Node, t)
		}
	}
	return up
}

// Router picks the member that will own a job. Route receives only
// eligible views (healthy ones when any exist) and must return the
// Index field of one of them. Implementations are pure functions of
// their arguments and keep no state: a route that is only audited, or
// whose job the member then refuses, must not change the next one, and
// a recovered federation must route as the crashed one would have.
type Router interface {
	// Name identifies the policy in snapshots and CLI flags.
	Name() string
	// Route picks a member for the job from the candidate views. The
	// views slice is ordered by member index and never empty; next is
	// one past the member that accepted the previous submission. The
	// views are lent for the call: Route must not keep them.
	Route(j *job.Job, views []View, next int) int
}

// RouterNames lists the built-in policies accepted by NewRouter, in
// documentation order.
func RouterNames() []string {
	return []string{"round-robin", "least-queue", "affinity"}
}

// NewRouter builds a built-in router by name (one of RouterNames).
func NewRouter(name string) (Router, error) {
	switch name {
	case "round-robin":
		return RoundRobin{}, nil
	case "least-queue":
		return LeastQueue{}, nil
	case "affinity":
		return Affinity{}, nil
	}
	return nil, fmt.Errorf("federation: unknown router %q (have %v)", name, RouterNames())
}

// RoundRobin cycles through the members, skipping ineligible ones: the
// chosen member is the first candidate at or after the federation's
// cursor. With every member eligible it degenerates to strict
// round-robin.
type RoundRobin struct{}

// Name implements Router.
func (RoundRobin) Name() string { return "round-robin" }

// Route implements Router.
func (RoundRobin) Route(j *job.Job, views []View, next int) int {
	for _, v := range views {
		if v.Index >= next {
			return v.Index
		}
	}
	return views[0].Index // wrap around
}

// LeastQueue routes to the member with the shallowest backlog
// (pending + active jobs), ties broken by lowest member index.
type LeastQueue struct{}

// Name implements Router.
func (LeastQueue) Name() string { return "least-queue" }

// Route implements Router.
func (LeastQueue) Route(j *job.Job, views []View, next int) int {
	pick := views[0]
	for _, v := range views[1:] {
		if v.QueueDepth < pick.QueueDepth {
			pick = v
		}
	}
	return pick.Index
}

// Affinity routes to the member holding the most up devices of the
// job's fastest usable accelerator type — the locality policy: put the
// job where its preferred heterogeneous capacity sits. Ties break by
// shallower queue, then lowest index.
type Affinity struct{}

// Name implements Router.
func (Affinity) Name() string { return "affinity" }

// Route implements Router.
func (Affinity) Route(j *job.Job, views []View, next int) int {
	pick := views[0]
	for _, v := range views[1:] {
		if v.BestUp > pick.BestUp ||
			(v.BestUp == pick.BestUp && v.QueueDepth < pick.QueueDepth) {
			pick = v
		}
	}
	return pick.Index
}
