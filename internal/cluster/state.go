package cluster

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/bug"
	"repro/internal/gpu"
)

// State tracks free accelerators per (node, type) against a cluster's
// capacities. It is the working object schedulers allocate from and the
// simulator validates against.
//
// Free counts live in one flat []int32 indexed by node*gpu.NumTypes+type,
// with cluster-wide per-type and total free counters and a 64-bit
// Zobrist-style hash all maintained incrementally, so the scheduling
// inner loop reads and memoizes allocation state without touching maps
// or allocating.
//
// State additionally offers a transactional API for speculative
// allocation (Hadar's DP branches on allocate-vs-skip thousands of times
// per round): Savepoint opens a transaction, Rollback undoes every
// Allocate/Release since the matching Savepoint, and Commit keeps them.
// Savepoints nest with stack discipline — the most recent open savepoint
// must be rolled back or committed first. A State is not safe for
// concurrent use.
//
// A node outage is a mark on the state, not a second cluster: after
// SetDown every accessor answers as NewState would for a cluster in
// which that node holds no devices.
type State struct {
	c      *Cluster
	free   []int32 // node*gpu.NumTypes + type; 0 on a down node
	cap    []int32 // same layout; the cluster's capacities, immutable after NewState
	byType [gpu.NumTypes]int
	total  int
	hash   uint64

	// down[node] is the outage mark. capOfType[t] and capTotal are the
	// capacity totals over the up nodes, and capNodes[t][c] the number of
	// up nodes holding exactly c >= 1 devices of t.
	down      []bool
	capOfType [gpu.NumTypes]int
	capTotal  int
	capNodes  [gpu.NumTypes][]int32

	// nz[t] is a bitmap over node IDs (64 nodes per word, bit order =
	// node order) of the nodes with free[node,t] > 0, and byFree[t][f] is
	// a bitmap of the nodes with exactly f free devices of t
	// (1 <= f <= the type's largest per-node capacity). Together they
	// serve the placement scans — ascending-node free lists and the
	// consolidation order (free descending, node ascending) — without
	// touching nodes that have nothing free and without sorting.
	nz     [gpu.NumTypes][]uint64
	byFree [gpu.NumTypes][][]uint64

	// Undo journal, recorded only while at least one savepoint is open.
	journal []journalEntry
	marks   []int // journal length at each open savepoint

	scratch []NodeFree // reusable placement-scan buffer
}

type journalEntry struct {
	cell  int32
	delta int32
}

const stride = int(gpu.NumTypes)

// cellHash returns the Zobrist key of one (cell, count) pair: a
// splitmix64-finalized mix of the flat cell index and its free count.
// The state hash is the XOR of cellHash over all cells, so any single
// count change updates it with two XORs.
func cellHash(cell int, count int32) uint64 {
	x := uint64(cell)<<32 ^ uint64(uint32(count))
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewState returns a fully free state for the cluster.
func NewState(c *Cluster) *State {
	nodes := c.NumNodes()
	s := &State{c: c, free: make([]int32, nodes*stride), cap: make([]int32, nodes*stride), down: make([]bool, nodes)}
	var maxCap [gpu.NumTypes]int32
	for i, node := range c.nodes {
		for t := gpu.Type(0); t < gpu.NumTypes; t++ {
			count := int32(node.Capacity[t])
			s.cap[i*stride+int(t)] = count
			if count > maxCap[t] {
				maxCap[t] = count
			}
		}
	}
	words := (nodes + 63) / 64
	for t, most := range maxCap {
		s.capNodes[t] = make([]int32, most+1)
		if most == 0 {
			continue
		}
		s.nz[t] = make([]uint64, words)
		s.byFree[t] = make([][]uint64, most+1)
		for f := int32(1); f <= most; f++ {
			s.byFree[t][f] = make([]uint64, words)
		}
	}
	// Every node starts with nothing free, as if down, and is brought up.
	for cell := range s.free {
		s.hash ^= cellHash(cell, 0)
	}
	for id := range c.nodes {
		s.mark(id, false)
	}
	return s
}

// Cluster returns the cluster this state tracks.
func (s *State) Cluster() *Cluster { return s.c }

// Free returns the free accelerator count on node id of type t.
func (s *State) Free(id int, t gpu.Type) int { return int(s.free[id*stride+int(t)]) }

// FreeOfType returns the cluster-wide free count of type t.
func (s *State) FreeOfType(t gpu.Type) int { return s.byType[t] }

// TotalFree returns the cluster-wide free count across all types.
func (s *State) TotalFree() int { return s.total }

// Hash returns the incremental 64-bit signature of the free state. Two
// states over same-shaped clusters with identical free counts hash
// equal; unequal states collide with probability ~2^-64. It replaces
// the string Key as the memoization key in Hadar's DP subroutine.
func (s *State) Hash() uint64 { return s.hash }

// Capacity returns node id's total accelerator count of type t — 0
// while the node is down — read from the state's flat table, which
// carries the down marks the cluster's capacities do not.
func (s *State) Capacity(id int, t gpu.Type) int {
	if s.down[id] {
		return 0
	}
	return int(s.cap[id*stride+int(t)])
}

// CapacityOfType returns the accelerator count of type t over the up
// nodes.
func (s *State) CapacityOfType(t gpu.Type) int { return s.capOfType[t] }

// TotalCapacity returns the accelerator count over the up nodes across
// all types.
func (s *State) TotalCapacity() int { return s.capTotal }

// Types returns the accelerator types some up node holds, ascending.
func (s *State) Types() []gpu.Type {
	var out []gpu.Type
	for t := gpu.Type(0); t < gpu.NumTypes; t++ {
		if s.capOfType[t] > 0 {
			out = append(out, t)
		}
	}
	return out
}

// CapacityCounts returns, indexed by per-node capacity c, the number of
// up nodes holding exactly c devices of type t (index 0 is unused). The
// returned slice must not be modified.
func (s *State) CapacityCounts(t gpu.Type) []int32 { return s.capNodes[t] }

// UniformCap returns the common per-node capacity of type t when every
// up node holding the type has the same capacity, -1 when capacities
// are mixed, and 0 when no up node has the type.
func (s *State) UniformCap(t gpu.Type) int {
	uniform := 0
	for c, n := range s.capNodes[t] {
		if n == 0 {
			continue
		}
		if uniform != 0 {
			return -1
		}
		uniform = c
	}
	return uniform
}

// SetDown marks node id down or up. A down node reads capacity 0 and
// free 0, so nothing can be allocated on or released to it and no scan
// lists it; marking it up restores its capacity, fully free. Marking a
// node the way it already is does nothing. It is an error to change a
// mark inside a transaction (rollback could not undo it) or to take
// down a node that still has devices allocated: the owner releases
// those first.
func (s *State) SetDown(id int, down bool) error {
	if id < 0 || id >= len(s.down) {
		return fmt.Errorf("cluster: outage mark on invalid node %d", id)
	}
	if s.down[id] == down {
		return nil
	}
	if len(s.marks) > 0 {
		return fmt.Errorf("cluster: outage mark on node %d inside a transaction", id)
	}
	if down {
		for cell := id * stride; cell < (id+1)*stride; cell++ {
			if s.free[cell] != s.cap[cell] {
				return fmt.Errorf("cluster: node %d marked down with %d %s allocated",
					id, s.cap[cell]-s.free[cell], gpu.Type(cell%stride))
			}
		}
	}
	s.mark(id, down)
	return nil
}

// mark moves node id, whose devices are all free or all withheld,
// between down (nothing free, out of the capacity summaries) and up
// (everything free).
func (s *State) mark(id int, down bool) {
	s.down[id] = down
	sign := int32(1)
	if down {
		sign = -1
	}
	for t := 0; t < stride; t++ {
		cell := id*stride + t
		if count := s.cap[cell]; count > 0 {
			delta := sign * count
			s.apply(cell, delta)
			s.capOfType[t] += int(delta)
			s.capTotal += int(delta)
			s.capNodes[t][count] += sign
		}
	}
}

// Savepoints returns the number of open savepoints.
func (s *State) Savepoints() int { return len(s.marks) }

// NodeFree pairs a node ID with a free device count, for placement
// scans.
type NodeFree struct {
	Node int
	Free int
}

// FreeNodes appends to buf the nodes holding free devices of type t, in
// ascending node order, and returns the extended slice. Pass a reused
// buffer (or the state's Scratch) to keep scans allocation-free. The
// scan walks the non-zero bitmap, so its cost is proportional to the
// nodes that actually hold the type free, not the cluster size.
func (s *State) FreeNodes(t gpu.Type, buf []NodeFree) []NodeFree {
	if s.byType[t] == 0 {
		return buf
	}
	for w, word := range s.nz[t] {
		base := w << 6
		for word != 0 {
			n := base + bits.TrailingZeros64(word)
			word &= word - 1
			buf = append(buf, NodeFree{Node: n, Free: int(s.free[n*stride+int(t)])})
		}
	}
	return buf
}

// AppendFreeNodesByFreeDesc appends to buf up to maxNodes nodes holding
// free devices of type t in consolidation order — free count
// descending, ties by ascending node ID — and returns the extended
// slice. maxNodes <= 0 means no limit. The scan walks the per-count
// bucket bitmaps from fullest to emptiest, so no sort happens; a
// consumer placing need devices can pass maxNodes = need, because every
// listed node contributes at least one device.
func (s *State) AppendFreeNodesByFreeDesc(t gpu.Type, maxNodes int, buf []NodeFree) []NodeFree {
	if s.byType[t] == 0 {
		return buf
	}
	appended := 0
	buckets := s.byFree[t]
	for f := len(buckets) - 1; f >= 1; f-- {
		for w, word := range buckets[f] {
			base := w << 6
			for word != 0 {
				n := base + bits.TrailingZeros64(word)
				word &= word - 1
				buf = append(buf, NodeFree{Node: n, Free: f})
				if appended++; maxNodes > 0 && appended >= maxNodes {
					return buf
				}
			}
		}
	}
	return buf
}

// Scratch returns the state's internal placement-scan buffer, emptied.
// The buffer is shared: it is invalidated by the next Scratch call on
// this state, so callers must finish with it before handing the state
// to other placement code.
func (s *State) Scratch() []NodeFree {
	if s.scratch == nil {
		s.scratch = make([]NodeFree, 0, s.c.NumNodes())
	}
	return s.scratch[:0]
}

// setFree moves one cell from old to now free devices, maintaining the
// hash and the bitmap indexes.
func (s *State) setFree(cell int, old, now int32) {
	s.hash ^= cellHash(cell, old) ^ cellHash(cell, now)
	s.free[cell] = now
	t := cell % stride
	node := cell / stride
	word, bit := node>>6, uint(node&63)
	if old > 0 {
		s.byFree[t][old][word] &^= 1 << bit
	}
	if now > 0 {
		s.byFree[t][now][word] |= 1 << bit
		s.nz[t][word] |= 1 << bit
	} else {
		s.nz[t][word] &^= 1 << bit
	}
}

// apply changes one cell by delta, maintaining the counters, the hash,
// the indexes, and (inside a transaction) the undo journal.
func (s *State) apply(cell int, delta int32) {
	old := s.free[cell]
	s.setFree(cell, old, old+delta)
	s.byType[cell%stride] += int(delta)
	s.total += int(delta)
	if len(s.marks) > 0 {
		s.journal = append(s.journal, journalEntry{cell: int32(cell), delta: delta})
	}
}

// undo reverses one journal entry without re-journaling it.
func (s *State) undo(e journalEntry) {
	cell := int(e.cell)
	old := s.free[cell]
	s.setFree(cell, old, old-e.delta)
	s.byType[cell%stride] -= int(e.delta)
	s.total -= int(e.delta)
}

// Savepoint opens a transaction and returns its token for Rollback or
// Commit. Savepoints nest; close the innermost first.
func (s *State) Savepoint() int {
	s.marks = append(s.marks, len(s.journal))
	return len(s.marks) - 1
}

// Rollback undoes every Allocate/Release since the savepoint and closes
// it (and any savepoint nested inside it). It panics on an already
// closed token, which indicates broken stack discipline.
func (s *State) Rollback(sp int) {
	if sp >= len(s.marks) {
		bug.Failf("cluster: rollback of closed savepoint %d (open: %d)", sp, len(s.marks))
	}
	mark := s.marks[sp]
	for i := len(s.journal) - 1; i >= mark; i-- {
		s.undo(s.journal[i])
	}
	s.journal = s.journal[:mark]
	s.marks = s.marks[:sp]
}

// Commit keeps every change since the savepoint and closes it (and any
// savepoint nested inside it). Changes remain undoable by an enclosing
// savepoint. It panics on an already closed token.
func (s *State) Commit(sp int) {
	if sp >= len(s.marks) {
		bug.Failf("cluster: commit of closed savepoint %d (open: %d)", sp, len(s.marks))
	}
	s.marks = s.marks[:sp]
	if len(s.marks) == 0 {
		s.journal = s.journal[:0]
	}
}

// Allocate removes the allocation's accelerators from the free pool. It
// returns an error (and leaves the state unchanged) if any placement
// exceeds the free count or names an invalid node or type.
func (s *State) Allocate(a Alloc) error {
	sp := s.Savepoint()
	for _, p := range a {
		if p.Count <= 0 {
			continue
		}
		if p.Node < 0 || p.Node >= s.c.NumNodes() {
			s.Rollback(sp)
			return fmt.Errorf("cluster: placement on invalid node %d", p.Node)
		}
		if !p.Type.Valid() {
			s.Rollback(sp)
			return fmt.Errorf("cluster: placement with invalid type %v", p.Type)
		}
		cell := p.Node*stride + int(p.Type)
		if int(s.free[cell]) < p.Count {
			err := fmt.Errorf("cluster: node %d has %d free %s, need %d",
				p.Node, s.free[cell], p.Type, p.Count)
			s.Rollback(sp)
			return err
		}
		s.apply(cell, int32(-p.Count))
	}
	s.Commit(sp)
	return nil
}

// Release returns the allocation's accelerators to the free pool. It
// returns an error (and leaves the state unchanged) if releasing would
// exceed a node's capacity, which indicates double-release.
func (s *State) Release(a Alloc) error {
	sp := s.Savepoint()
	for _, p := range a {
		if p.Count <= 0 {
			continue
		}
		if p.Node < 0 || p.Node >= s.c.NumNodes() {
			s.Rollback(sp)
			return fmt.Errorf("cluster: release on invalid node %d", p.Node)
		}
		if !p.Type.Valid() {
			s.Rollback(sp)
			return fmt.Errorf("cluster: release with invalid type %v", p.Type)
		}
		cell := p.Node*stride + int(p.Type)
		if int(s.free[cell])+p.Count > s.Capacity(p.Node, p.Type) {
			s.Rollback(sp)
			return fmt.Errorf("cluster: release of %d %s on node %d exceeds capacity",
				p.Count, p.Type, p.Node)
		}
		s.apply(cell, int32(p.Count))
	}
	s.Commit(sp)
	return nil
}

// CanAllocate reports whether Allocate would accept the allocation,
// reading the state without changing it: no savepoint, no journal
// entry. Placements with counts <= 0 are skipped, an invalid node or
// type fails, and placements on one (node, type) cell must fit its free
// count together, as Allocate's in-order subtraction requires.
func (s *State) CanAllocate(a Alloc) bool {
	for i, p := range a {
		if p.Count <= 0 {
			continue
		}
		if p.Node < 0 || p.Node >= s.c.NumNodes() || !p.Type.Valid() {
			return false
		}
		// Every earlier placement on this cell passed, so free stays
		// non-negative and nothing overflows.
		free := int(s.free[p.Node*stride+int(p.Type)])
		for _, q := range a[:i] {
			if q.Count > 0 && q.Node == p.Node && q.Type == p.Type {
				free -= q.Count
			}
		}
		if free < p.Count {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the state (sharing the immutable
// cluster and capacity table). Open savepoints do not transfer: the
// clone starts outside any transaction. The bitmap indexes and outage
// marks are deep-copied, so clones mutate independently.
func (s *State) Clone() *State {
	out := &State{
		c:         s.c,
		free:      append([]int32(nil), s.free...),
		cap:       s.cap,
		byType:    s.byType,
		total:     s.total,
		hash:      s.hash,
		down:      append([]bool(nil), s.down...),
		capOfType: s.capOfType,
		capTotal:  s.capTotal,
	}
	for t := range s.capNodes {
		out.capNodes[t] = append([]int32(nil), s.capNodes[t]...)
	}
	for t := range s.nz {
		if s.nz[t] == nil {
			continue
		}
		out.nz[t] = append([]uint64(nil), s.nz[t]...)
		out.byFree[t] = make([][]uint64, len(s.byFree[t]))
		for f, bm := range s.byFree[t] {
			if bm != nil {
				out.byFree[t][f] = append([]uint64(nil), bm...)
			}
		}
	}
	return out
}

// Key returns a compact canonical signature of the free state. Hash is
// the cheaper replacement for hot paths; Key remains for debugging and
// collision-free comparisons.
func (s *State) Key() string {
	var sb strings.Builder
	sb.Grow(len(s.free) + s.c.NumNodes())
	for i, c := range s.free {
		// Free counts are small non-negative ints; a byte-ish varint
		// keeps the key short. Counts >= 250 spill to two bytes.
		if c < 250 {
			sb.WriteByte(byte(c))
		} else {
			sb.WriteByte(250 + byte(c/250))
			sb.WriteByte(byte(c % 250))
		}
		if (i+1)%stride == 0 {
			sb.WriteByte('|')
		}
	}
	return sb.String()
}
