// Package sched defines the contract between the round-based cluster
// simulator and the scheduling policies (Hadar and the baselines): the
// per-job scheduling state, the per-round context, the Scheduler
// interface, and shared placement helpers.
package sched

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/gpu"
	"repro/internal/job"
)

// JobState is the simulator-maintained mutable state of one job.
// Schedulers read it to make decisions; only the simulator writes its
// exported fields (UsableTypes fills a cache of the job's own).
type JobState struct {
	// Job is the immutable description.
	Job *job.Job
	// Remaining is the number of training iterations left.
	Remaining float64
	// Alloc is the allocation the job held during the previous round
	// (nil if it was not running). Schedulers use it for stickiness and
	// non-preemptive policies; the simulator uses it to detect
	// reallocation (checkpoint-restart cost).
	Alloc cluster.Alloc
	// Attained is the accumulated GPU-seconds of service (Tiresias'
	// attained-service metric).
	Attained float64
	// Rounds is the number of rounds in which the job held any
	// allocation.
	Rounds int
	// RoundsByType counts rounds per accelerator type (Gavel's priority
	// denominator), indexed by gpu.Type. A mixed-type round increments
	// every type used.
	RoundsByType [gpu.NumTypes]float64
	// Started reports whether the job has ever been allocated;
	// StartTime is the time of its first allocation.
	Started bool
	// usable caches UsableTypes(usableOf) in its first nUsable entries.
	// The two small fields sit in Started's padding, so the cache moves
	// the state up no allocation size class. Keying the cache by the job
	// it was computed for keeps it exact when a copied state is pointed
	// at another job.
	usable    [gpu.NumTypes]gpu.Type
	nUsable   uint8
	StartTime float64
	// Reallocations counts rounds in which the job kept running but its
	// allocation changed (checkpoint-restart events).
	Reallocations int
	usableOf      *job.Job
}

// Running reports whether the job held an allocation last round.
func (s *JobState) Running() bool { return s.Alloc.Workers() > 0 }

// UsableTypes returns UsableTypes(s.Job), computed once per job and
// cached in the state: a job's usable types are a function of the
// immutable job alone. The slice aliases the state; callers must not
// modify it.
func (s *JobState) UsableTypes() []gpu.Type {
	if s.usableOf != s.Job {
		s.nUsable = uint8(len(AppendUsableTypes(s.usable[:0], s.Job)))
		s.usableOf = s.Job
	}
	return s.usable[:s.nUsable:s.nUsable]
}

// Context is the information a scheduler receives at each round
// boundary.
type Context struct {
	// Now is the current simulation time in seconds.
	Now float64
	// Round is the 0-based round index.
	Round int
	// RoundLength is the scheduling interval in seconds.
	RoundLength float64
	// Horizon is the estimated end of the scheduling window T used by
	// Hadar's price bounds; the simulator grows it as needed.
	Horizon float64
	// Free is the caller's one free-capacity state, lent for the call:
	// every device of every up node free, a down node reading capacity 0
	// and free 0. It is the only source of capacity; Free.Cluster() is
	// the static description (node speeds and count), outages not applied.
	Free *cluster.State
	// Jobs lists every arrived, unfinished job in arrival order.
	Jobs []*JobState
}

// Scheduler is a round-based scheduling policy. Schedule returns the
// desired allocation for the next round keyed by job ID; omitted jobs
// (or zero-worker allocations) are paused. Each returned allocation must
// respect gang scheduling (exactly Job.Workers workers) and, jointly,
// the cluster capacity; the simulator validates both.
//
// A policy searches directly on ctx.Free, under one savepoint it rolls
// back before returning, and builds no state of its own: the state's
// hash and savepoint depth are the same after the call as before it.
//
// Both sides lend memory for one round only. The caller reuses ctx and
// its Jobs slice for the next call, so a policy does not keep them. The
// returned map and its allocations may live in the policy's own
// buffers, valid until the next Schedule call, which may clear and
// overwrite them; a caller that keeps a decision longer copies it (the
// engine copies the allocations that changed).
type Scheduler interface {
	Name() string
	Schedule(ctx *Context) map[int]cluster.Alloc
}

// Rate returns the job's progress rate (iterations/second) under the
// given allocation: the bottleneck per-worker throughput across the
// allocation's device types and node speeds, multiplied by the worker
// count (constraints 1a/1b of the paper, extended with straggler
// factors).
func Rate(j *job.Job, c *cluster.Cluster, a cluster.Alloc) float64 {
	w := a.Workers()
	if w == 0 {
		return 0
	}
	slowest := math.Inf(1)
	for _, p := range a {
		if p.Count == 0 {
			continue
		}
		x := j.Speed(p.Type) * c.Speed(p.Node)
		if x < slowest {
			slowest = x
		}
	}
	if math.IsInf(slowest, 1) {
		return 0
	}
	return slowest * float64(w)
}

// Validate checks one job's allocation against the gang constraint and
// usable-type requirement, and rejects negative counts, which would
// otherwise cancel out of the worker sum. Capacity is checked jointly by
// the simulator.
func Validate(j *job.Job, a cluster.Alloc) error {
	if w := a.Workers(); w != 0 && w != j.Workers {
		return fmt.Errorf("sched: job %d allocated %d workers, gang requires %d", j.ID, w, j.Workers)
	}
	for _, p := range a {
		if p.Count < 0 {
			return fmt.Errorf("sched: job %d allocated %d devices of %v on node %d", j.ID, p.Count, p.Type, p.Node)
		}
		if p.Count > 0 && j.Speed(p.Type) <= 0 {
			return fmt.Errorf("sched: job %d allocated unusable type %v", j.ID, p.Type)
		}
	}
	return nil
}

// AppendConsolidated appends placements for up to need devices of type
// t onto out in consolidation order — most free devices first, ties by
// lower node ID — and returns the extended allocation plus the unmet
// need. Every consolidating placement goes through it: the Place*
// helpers below, and Hadar's FIND_ALLOC with its candidate arena as
// out. The state's bucket index already maintains that
// order, so the scan needs no sort and touches at most need nodes (every
// listed node contributes at least one device). It runs through the
// state's shared scratch buffer, so a round's placements do one buffer
// allocation total.
func AppendConsolidated(out cluster.Alloc, st *cluster.State, t gpu.Type, need int) (cluster.Alloc, int) {
	if need == 0 {
		return out, 0
	}
	nodes := st.AppendFreeNodesByFreeDesc(t, need, st.Scratch())
	for _, n := range nodes {
		take := n.Free
		if take > need {
			take = need
		}
		out = append(out, cluster.Placement{Node: n.Node, Type: t, Count: take})
		if need -= take; need == 0 {
			break
		}
	}
	return out, need
}

// PlaceSingleType places w workers of type t, consolidating onto as few
// nodes as possible (nodes with more free devices of t first; ties by
// lower node ID). It reports ok=false without mutating state if the
// cluster-wide free count of t is insufficient.
func PlaceSingleType(st *cluster.State, t gpu.Type, w int) (cluster.Alloc, bool) {
	if st.FreeOfType(t) < w {
		return nil, false
	}
	out, need := AppendConsolidated(nil, st, t, w)
	if need > 0 {
		return nil, false
	}
	return out, true
}

// PlaceAnyType fills w workers from the free pool following the given
// type preference order (earlier types first), consolidating within
// each type exactly like PlaceSingleType (most-free node first), so
// gangs fragment across as few machines as each type pool allows. It
// reports ok=false if fewer than w devices of the preferred types are
// free. Types the job cannot use must be excluded by the caller.
func PlaceAnyType(st *cluster.State, prefer []gpu.Type, w int) (cluster.Alloc, bool) {
	var out cluster.Alloc
	need := w
	for _, t := range prefer {
		if need == 0 {
			break
		}
		out, need = AppendConsolidated(out, st, t, need)
	}
	if need > 0 {
		return nil, false
	}
	return out, true
}

// AllocSingleType is PlaceSingleType followed by Allocate as one step:
// either the gang is placed and the state debited, or ok is false and
// the state is untouched. Baselines use it so a placement can never
// silently diverge from the booked state.
func AllocSingleType(st *cluster.State, t gpu.Type, w int) (cluster.Alloc, bool) {
	a, ok := PlaceSingleType(st, t, w)
	if !ok {
		return nil, false
	}
	if err := st.Allocate(a); err != nil {
		return nil, false
	}
	return a, true
}

// AllocAnyType is PlaceAnyType followed by Allocate as one step.
func AllocAnyType(st *cluster.State, prefer []gpu.Type, w int) (cluster.Alloc, bool) {
	a, ok := PlaceAnyType(st, prefer, w)
	if !ok {
		return nil, false
	}
	if err := st.Allocate(a); err != nil {
		return nil, false
	}
	return a, true
}

// UsableTypes returns the job's usable accelerator types sorted by
// descending throughput (ties by ascending type).
func UsableTypes(j *job.Job) []gpu.Type {
	return AppendUsableTypes(nil, j)
}

// AppendUsableTypes appends j's usable accelerator types in descending
// throughput order (ties by ascending type) onto buf and returns the
// extended slice: UsableTypes without the per-call allocation, for
// callers carving per-job type lists out of one reused arena. The
// insertion sort swaps only on strictly greater speed, so equal-speed
// types keep their ascending-type scan order.
func AppendUsableTypes(buf []gpu.Type, j *job.Job) []gpu.Type {
	mark := len(buf)
	for t := gpu.Type(0); t < gpu.NumTypes; t++ {
		if j.Speed(t) > 0 {
			buf = append(buf, t)
		}
	}
	out := buf[mark:]
	for i := 1; i < len(out); i++ {
		for k := i; k > 0 && j.Speed(out[k]) > j.Speed(out[k-1]); k-- {
			out[k], out[k-1] = out[k-1], out[k]
		}
	}
	return buf
}
