package core

import (
	"repro/internal/cluster"
	"repro/internal/sched"
)

// pick is one (queue index, allocation) decision of the DP, linked to
// the picks realizing the rest of its branch's total. Results share
// their tails, so a branch that wins adds one node instead of copying a
// list.
type pick struct {
	idx   int
	alloc cluster.Alloc
	next  int // see dpResult.picks
}

// dpResult is the best total payoff achievable from a DP position plus
// the picks realizing it: 1 + the index of the first in dpSearch.picks,
// 0 when there are none (so the zero dpResult is the empty one).
type dpResult struct {
	payoff float64
	picks  int
}

// dpMemoKey memoizes on (queue index, free-state hash): the DP's value
// is a deterministic function of the position.
type dpMemoKey struct {
	idx  int
	hash uint64
}

// dpSearch is one round's memoized search over the queue: the
// scheduler (for its probe, bound to the state the search mutates, and
// its inconsistency counter), the round's inputs, the memo, and the
// arena the pick lists live in. The scheduler owns one and resets it for
// every search, so a steady round reuses the memo's and the arena's
// storage.
type dpSearch struct {
	s     *Scheduler
	ctx   *sched.Context
	queue []*sched.JobState
	memo  map[dpMemoKey]dpResult
	picks []pick
}

// rec is Algorithm 2's recursion: branch on "allocate the best
// candidate" vs "skip", memoized on (idx, state hash). Branches mutate
// the probe's shared State under a savepoint and roll it back, so the
// search allocates nothing per visited node beyond the memo entries
// themselves. The skip branch is computed first and the allocate branch
// wins only on strictly greater total payoff.
func (d *dpSearch) rec(idx int, free *cluster.State) dpResult {
	if idx >= len(d.queue) || free.TotalFree() == 0 {
		return dpResult{}
	}
	key := dpMemoKey{idx: idx, hash: free.Hash()}
	if r, ok := d.memo[key]; ok {
		return r
	}
	// Branch 1: skip this job.
	best := d.rec(idx+1, free)
	// Branch 2: allocate this job at its best candidate, if that passes
	// the admission filter mu_j > 0.
	st := d.queue[idx]
	if st.Remaining > 0 {
		if cand, ok := d.s.probe.findAlloc(st, d.ctx); ok && cand.payoff > 0 {
			// The recursion's probes recycle the candidate arena.
			alloc := d.s.probe.retain(cand.alloc)
			sp := free.Savepoint()
			if err := free.Allocate(alloc); err != nil {
				d.s.noteInconsistency(err)
			} else {
				sub := d.rec(idx+1, free)
				total := cand.payoff + sub.payoff
				if total > best.payoff {
					d.picks = append(d.picks, pick{idx, alloc, sub.picks})
					best = dpResult{payoff: total, picks: len(d.picks)}
				}
			}
			free.Rollback(sp)
		}
	}
	d.memo[key] = best
	return best
}

// dpAllocate is Algorithm 2's dynamic program: for each job in order,
// branch on "allocate its best candidate" vs "skip", memoizing on
// (queue index, free-state hash), and keep the branch with the larger
// total payoff (equivalently, minimum cost for the chosen utility). The
// search returns the state as it found it; the winning picks are then
// allocated on it in the order the search allocated them.
func (s *Scheduler) dpAllocate(ctx *sched.Context, queue []*sched.JobState, out map[int]cluster.Alloc) {
	d := &s.dp
	d.s, d.ctx, d.queue = s, ctx, queue
	if d.memo == nil {
		d.memo = make(map[dpMemoKey]dpResult, 64)
	}
	clear(d.memo)
	d.picks = d.picks[:0]
	for i := d.rec(0, ctx.Free).picks; i != 0; i = d.picks[i-1].next {
		p := d.picks[i-1]
		if err := ctx.Free.Allocate(p.alloc); err != nil {
			s.noteInconsistency(err)
			continue
		}
		out[queue[p.idx].Job.ID] = p.alloc
		s.decided[p.idx] = true
	}
}
