package conformance

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gpu"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// viewWithout is the reference the lent state is measured against: a
// second cluster in which the down nodes hold no devices (node IDs and
// speeds kept), the way outages were shown to policies before the state
// carried the mark itself.
func viewWithout(c *cluster.Cluster, down map[int]bool) *cluster.Cluster {
	fleets := make([]gpu.Fleet, c.NumNodes())
	for _, n := range c.Nodes() {
		if !down[n.ID] {
			fleets[n.ID] = n.Capacity
		}
	}
	view := cluster.New(fleets...)
	for _, n := range c.Nodes() {
		view.SetSpeed(n.ID, n.Speed)
	}
	return view
}

// sameView fails unless got answers every capacity and free-capacity
// question a policy can ask exactly as want does.
func sameView(t *testing.T, round int, got, want *cluster.State) {
	t.Helper()
	fail := func(what string, g, w interface{}) {
		t.Helper()
		t.Fatalf("round %d: lent state %s = %v, NewState(view cluster) says %v", round, what, g, w)
	}
	if got.Hash() != want.Hash() {
		fail("Hash", got.Hash(), want.Hash())
	}
	if got.TotalFree() != want.TotalFree() {
		fail("TotalFree", got.TotalFree(), want.TotalFree())
	}
	if got.TotalCapacity() != want.TotalCapacity() {
		fail("TotalCapacity", got.TotalCapacity(), want.TotalCapacity())
	}
	if g, w := fmt.Sprint(got.Types()), fmt.Sprint(want.Types()); g != w {
		fail("Types", g, w)
	}
	for typ := gpu.Type(0); typ < gpu.NumTypes; typ++ {
		if got.FreeOfType(typ) != want.FreeOfType(typ) {
			fail(fmt.Sprintf("FreeOfType(%v)", typ), got.FreeOfType(typ), want.FreeOfType(typ))
		}
		if got.CapacityOfType(typ) != want.CapacityOfType(typ) {
			fail(fmt.Sprintf("CapacityOfType(%v)", typ), got.CapacityOfType(typ), want.CapacityOfType(typ))
		}
		if got.UniformCap(typ) != want.UniformCap(typ) {
			fail(fmt.Sprintf("UniformCap(%v)", typ), got.UniformCap(typ), want.UniformCap(typ))
		}
		// The full cluster may know larger capacities than the view; the
		// counts must agree wherever either has one.
		gc, wc := got.CapacityCounts(typ), want.CapacityCounts(typ)
		for c := 0; c < len(gc) || c < len(wc); c++ {
			var g, w int32
			if c < len(gc) {
				g = gc[c]
			}
			if c < len(wc) {
				w = wc[c]
			}
			if g != w {
				fail(fmt.Sprintf("CapacityCounts(%v)[%d]", typ, c), g, w)
			}
		}
		if g, w := fmt.Sprint(got.FreeNodes(typ, nil)), fmt.Sprint(want.FreeNodes(typ, nil)); g != w {
			fail(fmt.Sprintf("FreeNodes(%v)", typ), g, w)
		}
		if g, w := fmt.Sprint(got.AppendFreeNodesByFreeDesc(typ, 0, nil)), fmt.Sprint(want.AppendFreeNodesByFreeDesc(typ, 0, nil)); g != w {
			fail(fmt.Sprintf("AppendFreeNodesByFreeDesc(%v)", typ), g, w)
		}
		for node := 0; node < got.Cluster().NumNodes(); node++ {
			if got.Free(node, typ) != want.Free(node, typ) {
				fail(fmt.Sprintf("Free(%d, %v)", node, typ), got.Free(node, typ), want.Free(node, typ))
			}
			if got.Capacity(node, typ) != want.Capacity(node, typ) {
				fail(fmt.Sprintf("Capacity(%d, %v)", node, typ), got.Capacity(node, typ), want.Capacity(node, typ))
			}
		}
	}
}

// lendingAuditor wraps a policy and checks both halves of the lending
// contract every round: what the engine lends is observably the state
// the policy used to build for itself from the outage view, and the
// policy hands it back as found.
type lendingAuditor struct {
	t        *testing.T
	inner    sched.Scheduler
	failures []sim.Failure
}

func (a *lendingAuditor) Name() string { return a.inner.Name() }

func (a *lendingAuditor) Schedule(ctx *sched.Context) map[int]cluster.Alloc {
	down := map[int]bool{}
	for _, f := range a.failures {
		if f.Start < ctx.Now+1e-9 && f.End > ctx.Now {
			down[f.Node] = true
		}
	}
	sameView(a.t, ctx.Round, ctx.Free, cluster.NewState(viewWithout(ctx.Free.Cluster(), down)))
	hash, depth := ctx.Free.Hash(), ctx.Free.Savepoints()
	out := a.inner.Schedule(ctx)
	if ctx.Free.Hash() != hash || ctx.Free.Savepoints() != depth {
		a.t.Fatalf("round %d: %s returned the lent state changed: hash %#x -> %#x, open savepoints %d -> %d",
			ctx.Round, a.inner.Name(), hash, ctx.Free.Hash(), depth, ctx.Free.Savepoints())
	}
	return out
}

// TestLentStateIsTheViewState runs the differential matrix, with and
// without outages (one window takes every V100 node, so a type leaves
// the view and comes back), on the uniform simulation cluster and on a
// mixed-capacity one, with every policy behind the auditor.
func TestLentStateIsTheViewState(t *testing.T) {
	core.PanicOnInconsistency = true
	// 20 devices of each type, like SimCluster (job-level policies need
	// a whole gang on one type), but with mixed per-node capacities and
	// one node holding two types.
	mixed := func() *cluster.Cluster {
		return cluster.New(
			gpu.Fleet{gpu.V100: 4}, gpu.Fleet{gpu.V100: 2, gpu.K80: 2}, gpu.Fleet{gpu.V100: 4},
			gpu.Fleet{gpu.V100: 4}, gpu.Fleet{gpu.V100: 4}, gpu.Fleet{gpu.V100: 2},
			gpu.Fleet{gpu.P100: 4}, gpu.Fleet{gpu.P100: 3}, gpu.Fleet{gpu.P100: 4},
			gpu.Fleet{gpu.P100: 4}, gpu.Fleet{gpu.P100: 3}, gpu.Fleet{gpu.P100: 2},
			gpu.Fleet{gpu.K80: 4}, gpu.Fleet{gpu.K80: 1}, gpu.Fleet{gpu.K80: 4},
			gpu.Fleet{gpu.K80: 4}, gpu.Fleet{gpu.K80: 4}, gpu.Fleet{gpu.K80: 1},
		)
	}
	// Nodes 0-4 hold every V100 of SimCluster, nodes 0-5 every V100 of
	// the mixed cluster.
	outages := func(v100Nodes int) []sim.Failure {
		out := []sim.Failure{
			{Node: 0, Start: 0, End: 4000},
			{Node: 7, Start: 2000, End: 9000},
			{Node: 13, Start: 500, End: 1300},
			{Node: 7, Start: 12000, End: 13000},
		}
		for n := 1; n < v100Nodes; n++ {
			out = append(out, sim.Failure{Node: n, Start: 1500, End: 4000})
		}
		return out
	}
	cells := []struct {
		name     string
		cluster  func() *cluster.Cluster
		seed     int64
		pattern  trace.Pattern
		failures []sim.Failure
	}{
		{"sim/static", experiments.SimCluster, 1, trace.Static, nil},
		{"sim/poisson", experiments.SimCluster, 3, trace.Poisson, nil},
		{"sim/outages", experiments.SimCluster, 4, trace.Static, outages(5)},
		{"mixed/static", mixed, 2, trace.Static, nil},
		{"mixed/outages", mixed, 4, trace.Poisson, outages(6)},
	}
	for name, mk := range policies() {
		name, mk := name, mk
		for _, cl := range cells {
			cl := cl
			t.Run(name+"/"+cl.name, func(t *testing.T) {
				t.Parallel()
				opts := sim.ValidatedOptions()
				opts.Failures = cl.failures
				jobs := seededTrace(t, cl.seed, cl.pattern, 48)
				aud := &lendingAuditor{t: t, inner: mk(), failures: cl.failures}
				rep, err := sim.Run(cl.cluster(), jobs, aud, opts)
				if err != nil {
					t.Fatal(err)
				}
				if len(cl.failures) > 0 && rep.Faults.NodeDown == 0 {
					t.Error("failure injection did not register any outage")
				}
			})
		}
	}
}
