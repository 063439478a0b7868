// Package cluster models the heterogeneous GPU cluster that the Hadar
// scheduler and its baselines allocate from: a set of machines (nodes),
// each holding a fleet of accelerators of possibly several types
// (capacity c_h^r in the paper), plus the allocation bookkeeping used by
// the simulator and the schedulers.
//
// It also supports injecting per-node slowdown factors to model
// straggling machines, an effect the paper's continuous-trace evaluation
// credits Hadar with handling well.
package cluster

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/bug"
	"repro/internal/gpu"
)

// Node is one machine in the cluster.
type Node struct {
	// ID is the node's index within the cluster; Cluster.New assigns it.
	ID int
	// Capacity is c_h^r: the number of accelerators of each type on this
	// machine.
	Capacity gpu.Fleet
	// Speed is a throughput multiplier for every accelerator on the
	// node; 1.0 is nominal, values below 1 model stragglers (e.g.
	// thermal throttling or a slow PCIe link). Must be positive.
	Speed float64
}

// Cluster is an immutable description of the machines. Allocation state
// lives in State.
type Cluster struct {
	nodes []Node
	// fleet is the per-type device count over all nodes; New and Merge
	// set it, so Fleet and TotalGPUs scan no nodes.
	fleet gpu.Fleet
	// uniformSpeed caches UniformSpeed; New, Merge and SetSpeed keep it.
	uniformSpeed bool
}

// New builds a cluster from node capacities. Node IDs are assigned in
// order; a zero Speed is normalized to 1.0.
func New(capacities ...gpu.Fleet) *Cluster {
	c := &Cluster{nodes: make([]Node, len(capacities)), uniformSpeed: true}
	for i, cap := range capacities {
		c.nodes[i] = Node{ID: i, Capacity: cap, Speed: 1.0}
		c.fleet.Add(cap)
	}
	return c
}

// Homogeneous builds a cluster of n identical nodes, each holding
// perNode accelerators of type t.
func Homogeneous(n int, t gpu.Type, perNode int) *Cluster {
	fleets := make([]gpu.Fleet, n)
	for i := range fleets {
		fleets[i][t] = perNode
	}
	return New(fleets...)
}

// Merge concatenates the nodes of several clusters into one, reassigning
// node IDs.
func Merge(clusters ...*Cluster) *Cluster {
	out := &Cluster{}
	for _, c := range clusters {
		for _, n := range c.nodes {
			n.ID = len(out.nodes)
			out.nodes = append(out.nodes, n)
		}
		out.fleet.Add(c.fleet)
	}
	out.uniformSpeed = out.scanSpeeds()
	return out
}

// NumNodes returns the machine count H.
func (c *Cluster) NumNodes() int { return len(c.nodes) }

// Nodes returns the nodes in ID order. The returned slice must not be
// modified.
func (c *Cluster) Nodes() []Node { return c.nodes }

// SetSpeed sets node id's straggler factor. It panics if speed <= 0.
func (c *Cluster) SetSpeed(id int, speed float64) {
	if speed <= 0 {
		bug.Failf("cluster: non-positive speed %v for node %d", speed, id)
	}
	c.nodes[id].Speed = speed
	c.uniformSpeed = c.scanSpeeds()
}

// Speed returns node id's straggler factor.
func (c *Cluster) Speed(id int) float64 { return c.nodes[id].Speed }

// UniformSpeed reports whether every node runs at the same straggler
// factor — the common case, since New normalizes speeds to 1.0 and only
// the straggler experiments change them. Placement code uses it to pick
// scan orders that need no per-node speed tiebreak. It reads a flag
// kept by New, Merge and SetSpeed, so Hadar's per-round bind scans no
// nodes.
func (c *Cluster) UniformSpeed() bool { return c.uniformSpeed }

// scanSpeeds is UniformSpeed computed from the nodes.
func (c *Cluster) scanSpeeds() bool {
	for _, n := range c.nodes {
		if n.Speed < c.nodes[0].Speed || n.Speed > c.nodes[0].Speed {
			return false
		}
	}
	return true
}

// Capacity returns c_h^r for node id and type t.
func (c *Cluster) Capacity(id int, t gpu.Type) int {
	return c.nodes[id].Capacity.Count(t)
}

// Fleet returns the cluster-wide accelerator count of each type.
func (c *Cluster) Fleet() gpu.Fleet { return c.fleet }

// TotalGPUs returns the cluster-wide accelerator count across all types.
func (c *Cluster) TotalGPUs() int { return c.fleet.Total() }

// String renders a short description, e.g. "cluster[15 nodes, {V100:20 P100:20 K80:20}]".
func (c *Cluster) String() string {
	return fmt.Sprintf("cluster[%d nodes, %s]", len(c.nodes), c.fleet)
}

// Placement assigns Count accelerators of one type on one node to a job.
type Placement struct {
	Node  int
	Type  gpu.Type
	Count int
}

// Alloc is a job's full task-level allocation: a set of placements whose
// counts sum to either 0 or the job's gang size W_j. A nil Alloc means
// "not scheduled this round".
type Alloc []Placement

// Workers returns the total accelerator count of the allocation.
func (a Alloc) Workers() int {
	n := 0
	for _, p := range a {
		n += p.Count
	}
	return n
}

// NumNodes returns how many distinct nodes the allocation spans. It
// allocates nothing: allocations span few placements, so the quadratic
// scan is cheaper than a set.
func (a Alloc) NumNodes() int {
	n := 0
	for i, p := range a {
		if p.Count <= 0 {
			continue
		}
		seen := false
		for _, q := range a[:i] {
			if q.Count > 0 && q.Node == p.Node {
				seen = true
				break
			}
		}
		if !seen {
			n++
		}
	}
	return n
}

// Canonical returns an equivalent allocation with zero-count placements
// dropped, same-(node,type) placements merged, and entries sorted by
// (node, type). Canonical forms compare with Equal.
func (a Alloc) Canonical() Alloc { return a.AppendCanonical(nil) }

// AppendCanonical appends a's canonical form (see Canonical) onto dst
// and returns the extended slice; dst grows at most once, so appending
// into a buffer with room for len(a) more placements allocates nothing.
// Zero counts are dropped, the rest insertion-sorted by (node, type) —
// placement lists are short — and same-(node,type) neighbours merged.
func (a Alloc) AppendCanonical(dst Alloc) Alloc {
	mark := len(dst)
	dst = slices.Grow(dst, len(a))
	for _, p := range a {
		if p.Count > 0 {
			dst = append(dst, p)
		}
	}
	out := dst[mark:]
	for i := 1; i < len(out); i++ {
		for k := i; k > 0 && placementLess(out[k], out[k-1]); k-- {
			out[k], out[k-1] = out[k-1], out[k]
		}
	}
	w := 0
	for _, p := range out {
		if w > 0 && out[w-1].Node == p.Node && out[w-1].Type == p.Type {
			out[w-1].Count += p.Count
			continue
		}
		out[w] = p
		w++
	}
	return dst[:mark+w]
}

// placementLess orders placements by (node, type).
func placementLess(p, q Placement) bool {
	return p.Node < q.Node || (p.Node == q.Node && p.Type < q.Type)
}

// isCanonical reports whether a is already in canonical form: positive
// counts, strictly ascending (node, type).
func (a Alloc) isCanonical() bool {
	for i, p := range a {
		if p.Count <= 0 || (i > 0 && !placementLess(a[i-1], p)) {
			return false
		}
	}
	return true
}

// Equal reports whether two allocations place the same counts on the
// same (node, type) pairs, regardless of entry order or splitting. It
// allocates nothing when both sides are already canonical.
func (a Alloc) Equal(b Alloc) bool {
	if !a.isCanonical() {
		a = a.Canonical()
	}
	if !b.isCanonical() {
		b = b.Canonical()
	}
	return slices.Equal(a, b)
}

// Clone returns an independent copy.
func (a Alloc) Clone() Alloc {
	if a == nil {
		return nil
	}
	return append(Alloc(nil), a...)
}

// String renders e.g. "[n0:V100x2 n3:K80x1]".
func (a Alloc) String() string {
	var sb strings.Builder
	sb.WriteByte('[')
	for i, p := range a.Canonical() {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "n%d:%sx%d", p.Node, p.Type, p.Count)
	}
	sb.WriteByte(']')
	return sb.String()
}

// State (see state.go) tracks free accelerators per (node, type)
// against a cluster's capacities.
