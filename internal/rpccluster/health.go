package rpccluster

// health tracks per-worker liveness from the controller's round-clock
// heartbeat probes. A node is marked down after K consecutive failed
// probes (K = ProbeThreshold) and re-admitted by the first successful
// probe after a reconnect. Each worker reports an incarnation token
// (its process identity); a changed incarnation on an up node means
// the worker restarted — and lost its in-memory tasks — without the
// controller ever observing an outage.
//
// The tracker is driven synchronously from the controller's round loop
// rather than by a background goroutine: probe cadence then follows
// the scheduling clock, failure handling cannot race the scheduling
// decision, and fault-injection tests stay deterministic.
type health struct {
	threshold int
	nodes     []nodeHealth
}

type nodeHealth struct {
	consecFails int
	down        bool
	incarnation int64
	// needsSync marks a node whose state may have diverged from the
	// controller's (a call to it failed transiently): the next
	// successful probe triggers a Status reconciliation.
	needsSync bool
}

func newHealth(nodes, threshold int) *health {
	if threshold <= 0 {
		threshold = 2
	}
	return &health{threshold: threshold, nodes: make([]nodeHealth, nodes)}
}

// fail records a failed probe or call; it reports whether this failure
// transitioned the node to down.
func (h *health) fail(node int) (wentDown bool) {
	n := &h.nodes[node]
	n.needsSync = true
	if n.down {
		return false
	}
	n.consecFails++
	if n.consecFails >= h.threshold {
		n.down = true
		return true
	}
	return false
}

// ok records a successful probe carrying the worker's incarnation. It
// reports whether the node transitioned up, and whether the worker
// restarted (changed incarnation) since the last successful probe —
// callers must treat a restart like a failure of every task the node
// held. sync reports whether a Status reconciliation is due.
func (h *health) ok(node int, incarnation int64) (cameUp, restarted, sync bool) {
	n := &h.nodes[node]
	cameUp = n.down
	restarted = n.incarnation != 0 && n.incarnation != incarnation && !cameUp
	n.incarnation = incarnation
	n.down = false
	n.consecFails = 0
	sync = n.needsSync || cameUp || restarted
	n.needsSync = false
	return cameUp, restarted, sync
}

// isDown reports a node's current state.
func (h *health) isDown(node int) bool { return h.nodes[node].down }
