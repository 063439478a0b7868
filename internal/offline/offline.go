// Package offline computes exact offline-optimal schedules for tiny
// instances of the paper's Problem P1 by exhaustive search, and replays
// online schedulers on the same instances. It exists to validate
// Theorem 2 empirically: Hadar's total utility must stay within the
// proven 2*alpha factor of the offline optimum (and, in practice, far
// closer).
//
// The search enumerates, per round, every gang-feasible joint allocation
// (including idling) and maximizes the sum of job utilities, so it is
// exponential and only suitable for instances with a handful of jobs,
// devices, and rounds — exactly what a correctness check needs.
package offline

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/bug"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/sched"
)

// Instance is a tiny P1 instance.
type Instance struct {
	Cluster     *cluster.Cluster
	Jobs        []*job.Job
	Rounds      int
	RoundLength float64
	Utility     core.Utility
}

// Validate checks the instance is searchable.
func (in Instance) Validate() error {
	if in.Cluster == nil || len(in.Jobs) == 0 {
		return fmt.Errorf("offline: empty instance")
	}
	if in.Rounds <= 0 || in.Rounds > 6 {
		return fmt.Errorf("offline: rounds %d outside (0, 6]", in.Rounds)
	}
	if len(in.Jobs) > 3 {
		return fmt.Errorf("offline: %d jobs exceed the brute-force limit of 3", len(in.Jobs))
	}
	if in.Cluster.TotalGPUs() > 6 {
		return fmt.Errorf("offline: %d devices exceed the brute-force limit of 6", in.Cluster.TotalGPUs())
	}
	if in.RoundLength <= 0 {
		return fmt.Errorf("offline: non-positive round length")
	}
	if in.Utility == nil {
		return fmt.Errorf("offline: nil utility")
	}
	for _, j := range in.Jobs {
		if err := j.Validate(); err != nil {
			return fmt.Errorf("offline: %w", err)
		}
		if j.Arrival > 0 {
			return fmt.Errorf("offline: brute force assumes static arrivals, job %d arrives at %v", j.ID, j.Arrival)
		}
	}
	return nil
}

// Result is the outcome of the exhaustive search.
type Result struct {
	// BestUtility is the offline-optimal total utility over completed
	// jobs within the horizon.
	BestUtility float64
	// Schedule is one optimal schedule: Schedule[round][jobIndex].
	Schedule [][]cluster.Alloc
	// Explored counts the DFS leaves evaluated.
	Explored int
}

// candidates enumerates every gang allocation of the job on the cluster
// (every way to distribute W_j workers over usable (node, type) slots),
// plus the empty allocation.
func candidates(c *cluster.Cluster, j *job.Job) []cluster.Alloc {
	type slot struct {
		node int
		typ  gpu.Type
		cap  int
	}
	var slots []slot
	for _, n := range c.Nodes() {
		for t, cap := range n.Capacity {
			if cap > 0 && j.Speed(gpu.Type(t)) > 0 {
				slots = append(slots, slot{node: n.ID, typ: gpu.Type(t), cap: cap})
			}
		}
	}
	var out []cluster.Alloc
	out = append(out, nil) // idle
	var rec func(idx, need int, cur cluster.Alloc)
	rec = func(idx, need int, cur cluster.Alloc) {
		if need == 0 {
			out = append(out, cur.Clone().Canonical())
			return
		}
		if idx >= len(slots) {
			return
		}
		max := slots[idx].cap
		if max > need {
			max = need
		}
		for take := 0; take <= max; take++ {
			next := cur
			if take > 0 {
				next = append(cur.Clone(), cluster.Placement{
					Node: slots[idx].node, Type: slots[idx].typ, Count: take,
				})
			}
			rec(idx+1, need-take, next)
		}
	}
	rec(0, j.Workers, nil)
	return out
}

// Optimal exhaustively searches the instance for the maximum total
// utility.
func Optimal(in Instance) (Result, error) {
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	cands := make([][]cluster.Alloc, len(in.Jobs))
	for i, j := range in.Jobs {
		cands[i] = candidates(in.Cluster, j)
	}

	best := Result{BestUtility: 0}
	remaining := make([]float64, len(in.Jobs))
	finished := make([]float64, len(in.Jobs)) // finish time or -1
	for i, j := range in.Jobs {
		remaining[i] = j.TotalIters()
		finished[i] = -1
	}
	current := make([][]cluster.Alloc, in.Rounds)

	var dfsRound func(round int)
	var dfsJob func(round, jobIdx int, free *cluster.State, chosen []cluster.Alloc)

	scoreAndRecurse := func(round int, chosen []cluster.Alloc) {
		// Advance every job for this round.
		savedRem := append([]float64(nil), remaining...)
		savedFin := append([]float64(nil), finished...)
		now := float64(round) * in.RoundLength
		for i, j := range in.Jobs {
			if finished[i] >= 0 || chosen[i].Workers() == 0 {
				continue
			}
			rate := sched.Rate(j, in.Cluster, chosen[i])
			if rate <= 0 {
				continue
			}
			if remaining[i] <= rate*in.RoundLength {
				finished[i] = now + remaining[i]/rate
				remaining[i] = 0
			} else {
				remaining[i] -= rate * in.RoundLength
			}
		}
		current[round] = append([]cluster.Alloc(nil), chosen...)
		dfsRound(round + 1)
		remaining = savedRem
		finished = savedFin
	}

	dfsJob = func(round, jobIdx int, free *cluster.State, chosen []cluster.Alloc) {
		if jobIdx == len(in.Jobs) {
			scoreAndRecurse(round, chosen)
			return
		}
		if finished[jobIdx] >= 0 {
			chosen[jobIdx] = nil
			dfsJob(round, jobIdx+1, free, chosen)
			return
		}
		for _, a := range cands[jobIdx] {
			if a.Workers() > 0 {
				if err := free.Allocate(a); err != nil {
					continue
				}
			}
			chosen[jobIdx] = a
			dfsJob(round, jobIdx+1, free, chosen)
			if a.Workers() > 0 {
				if err := free.Release(a); err != nil {
					bug.Failf("offline: release during backtracking failed: %v", err)
				}
			}
		}
	}

	score := func() {
		best.Explored++
		total := 0.0
		for i, j := range in.Jobs {
			if finished[i] >= 0 {
				total += in.Utility.Value(j, 0, finished[i]-j.Arrival)
			}
		}
		if total > best.BestUtility {
			best.BestUtility = total
			best.Schedule = make([][]cluster.Alloc, in.Rounds)
			for r := range current {
				best.Schedule[r] = append([]cluster.Alloc(nil), current[r]...)
			}
		}
	}

	dfsRound = func(round int) {
		allDone := true
		for i := range in.Jobs {
			if finished[i] < 0 {
				allDone = false
				break
			}
		}
		if round == in.Rounds || allDone {
			// Remaining rounds (if any) idle.
			for r := round; r < in.Rounds; r++ {
				current[r] = make([]cluster.Alloc, len(in.Jobs))
			}
			score()
			return
		}
		chosen := make([]cluster.Alloc, len(in.Jobs))
		dfsJob(round, 0, cluster.NewState(in.Cluster), chosen)
	}

	dfsRound(0)
	return best, nil
}

// Replay runs an online scheduler round by round on the instance (P1
// semantics: no checkpoint overhead) and returns its total utility over
// completed jobs plus the largest competitive-ratio factor alpha it
// reported (for *core.Scheduler; 1 otherwise).
func Replay(in Instance, s sched.Scheduler) (utility, alpha float64, err error) {
	if err := in.Validate(); err != nil {
		return 0, 0, err
	}
	states := make([]*sched.JobState, len(in.Jobs))
	for i, j := range in.Jobs {
		states[i] = &sched.JobState{
			Job: j, Remaining: j.TotalIters(),
		}
	}
	finished := make([]float64, len(in.Jobs))
	for i := range finished {
		finished[i] = -1
	}
	alpha = 1
	horizon := float64(in.Rounds) * in.RoundLength
	// One state for the replay: lent to the scheduler, then used to
	// validate its decisions under a savepoint.
	free := cluster.NewState(in.Cluster)
	for round := 0; round < in.Rounds; round++ {
		now := float64(round) * in.RoundLength
		var active []*sched.JobState
		idx := map[int]int{}
		for i, st := range states {
			if finished[i] < 0 {
				active = append(active, st)
				idx[st.Job.ID] = i
			}
		}
		if len(active) == 0 {
			break
		}
		ctx := &sched.Context{
			Now: now, Round: round, RoundLength: in.RoundLength,
			Horizon: horizon, Free: free, Jobs: active,
		}
		decisions := s.Schedule(ctx)
		if h, ok := s.(*core.Scheduler); ok {
			if a := h.LastAlpha(); a > alpha {
				alpha = a
			}
		}
		ids := make([]int, 0, len(decisions))
		for id := range decisions {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		sp := free.Savepoint()
		for _, id := range ids {
			a := decisions[id]
			i, ok := idx[id]
			if !ok {
				return 0, 0, fmt.Errorf("offline: allocation for inactive job %d", id)
			}
			if err := sched.Validate(states[i].Job, a); err != nil {
				return 0, 0, err
			}
			if a.Workers() > 0 {
				if err := free.Allocate(a); err != nil {
					return 0, 0, fmt.Errorf("offline: %s over-allocated: %w", s.Name(), err)
				}
			}
		}
		free.Rollback(sp)
		for _, st := range active {
			i := idx[st.Job.ID]
			a := decisions[st.Job.ID].Canonical()
			st.Alloc = a
			if a.Workers() == 0 {
				continue
			}
			st.Rounds++
			rate := sched.Rate(st.Job, in.Cluster, a)
			if rate <= 0 {
				continue
			}
			if st.Remaining <= rate*in.RoundLength {
				finished[i] = now + st.Remaining/rate
				st.Remaining = 0
			} else {
				st.Remaining -= rate * in.RoundLength
			}
		}
	}
	total := 0.0
	for i, j := range in.Jobs {
		if finished[i] >= 0 {
			total += in.Utility.Value(j, 0, finished[i]-j.Arrival)
		}
	}
	if math.IsNaN(total) {
		return 0, 0, fmt.Errorf("offline: NaN utility")
	}
	return total, alpha, nil
}
