package core

import (
	"slices"

	"repro/internal/cluster"
	"repro/internal/gpu"
	"repro/internal/sched"
)

// candidate is one allocation option produced by FIND_ALLOC together
// with its primal-dual economics.
type candidate struct {
	alloc  cluster.Alloc
	rate   float64 // iterations/second under this allocation
	cost   float64 // sum of dual prices (+ communication surcharge)
	payoff float64 // mu_j = utility - cost
}

// probe is the free-state-bound working set of one Schedule call (the
// greedy sweep or DP search, then the backfill sweep): the state it
// prices against and every scratch buffer FIND_ALLOC recycles between
// calls. The scheduler reuses one probe across rounds.
type probe struct {
	opts *Options
	pt   *priceTable
	free *cluster.State
	// uniformFill[t] licenses fillType's price-free scan order for type
	// t: every node runs at the same speed and every up node holding t
	// has the same capacity. Fixed for the round: outage marks cannot
	// change inside the savepoint Schedule holds.
	uniformFill [gpu.NumTypes]bool

	// FIND_ALLOC working storage: fillScratch is the node-scan buffer
	// fillType's fallback path selects candidate nodes in, candArena is
	// the backing store candidate placements are carved from, and
	// candScratch is the candidate list itself. All are recycled on
	// every findAlloc call. retainArena backs the allocations the round
	// hands out (see retain): it only grows between binds, so carved
	// allocations stay valid for the whole round, and bind truncates it,
	// so a steady round allocates nothing for it.
	fillScratch []fillOption
	candArena   []cluster.Placement
	candScratch []cluster.Alloc
	retainArena cluster.Alloc
}

// bind points the probe at a round's options, price table, and free
// state, and truncates the retain arena: the allocations the previous
// round carved from it were lent to the caller only until this call
// (sched.Scheduler), so their storage is reused.
func (p *probe) bind(opts *Options, pt *priceTable, free *cluster.State) {
	p.opts, p.pt, p.free = opts, pt, free
	uniformSpeed := free.Cluster().UniformSpeed()
	for t := range p.uniformFill {
		p.uniformFill[t] = uniformSpeed && free.UniformCap(gpu.Type(t)) > 0
	}
	p.retainArena = p.retainArena[:0]
}

// findAlloc is the paper's FIND_ALLOC subroutine (Algorithm 2, lines
// 22-34): generate consolidated ("packed") and consolidation-independent
// allocations over the GPU types sorted by the job's throughput
// (st.UsableTypes, cached per job), price each against the current dual
// prices (adding a communication surcharge for multi-server
// allocations), and return the highest-payoff option. ok is false only
// when no feasible allocation exists at all; the admission filter
// mu_j > 0 is applied by the caller (the backfill pass deliberately
// ignores it).
//
// This is the per-round hot path: Hadar's DP calls it once per visited
// search node. Candidate placements are built in the probe's arena and
// candidate list, and the winner is returned straight from the
// candidate arena, so a call performs no steady-state heap allocation
// at all. The winner is therefore only valid until the next findAlloc
// call: a caller that keeps it passes it through retain first.
func (p *probe) findAlloc(st *sched.JobState, ctx *sched.Context) (candidate, bool) {
	cands, current := p.candidates(st)
	return p.best(st, ctx, cands, current)
}

// candidates builds FIND_ALLOC's candidate list for the job: every
// feasible single-type fill and consolidated fill, the one task-level
// mixed fill, and the job's current allocation when it still fits, at
// index current (-1 when it does not).
//
// It builds only candidates that are feasible and not already listed.
// The paper's generator loop — a cheapest-node fill and a consolidated
// fill per usable type, then every descending-throughput prefix of two
// or more types — yields the same list once infeasible options and
// duplicates are dropped, in the same order:
//
//   - a type with fewer free devices than the gang has no single-type
//     fill at all;
//   - under uniformFill[t] the cheapest-node fill is the consolidated
//     fill, placement for placement (fillType takes the same
//     sched.AppendConsolidated scan);
//   - a prefix whose types jointly lack free devices is infeasible, and
//     any prefix longer than the first one that covers the gang stops
//     filling before its extra types, so it repeats that one (or, when
//     types[0] alone covers the gang, the single-type fill of types[0]).
//
// appendCand still drops the duplicates that remain possible (a
// cheapest-node fill equal to the consolidated one off the uniform
// path, a mixed fill whose leading types have nothing free); a
// duplicate could never win anyway, since the first index attaining the
// best payoff wins. FuzzFindAllocMatchesReference pins the equivalence.
func (p *probe) candidates(st *sched.JobState) ([]cluster.Alloc, int) {
	w := st.Job.Workers
	types := st.UsableTypes()
	cands := p.candScratch[:0]
	arena := p.candArena[:0]

	// Single-type allocations: for each type that can hold the gang on
	// its own, one candidate on the cheapest nodes, plus the maximally
	// consolidated variant when it differs.
	for _, t := range types {
		if p.free.FreeOfType(t) < w {
			continue
		}
		if a, ok := p.fillOneType(&arena, w, t); ok {
			cands = appendCand(cands, a)
		}
		if p.uniformFill[t] {
			continue
		}
		if a, ok := appendSingleType(&arena, p.free, t, w); ok {
			cands = appendCand(cands, a)
		}
	}
	// Task-level mixed allocation: the shortest prefix of the
	// descending-throughput type list whose free devices cover the gang.
	// This is the capability Gavel lacks: a gang can straddle
	// accelerator types when no single type has enough free devices (or
	// when mixing is simply cheaper).
	if p.opts.TaskLevel {
		covered := 0
		for k, t := range types {
			if covered += p.free.FreeOfType(t); covered < w {
				continue
			}
			if k > 0 {
				if a, ok := p.fillTypes(&arena, w, types[:k+1]); ok {
					cands = appendCand(cands, a)
				}
			}
			break
		}
	}
	// Stickiness: re-offer the job's current allocation (it is feasible
	// by construction: the simulator freed nothing mid-round, and this
	// round's state starts fully free) at a discounted cost, so
	// unchanged allocations win ties and checkpoint churn stays low.
	current := -1
	if st.Running() && p.free.CanAllocate(st.Alloc) {
		current = len(cands)
		cands = append(cands, st.Alloc)
	}
	p.candScratch = cands
	p.candArena = arena
	return cands, current
}

// best prices every candidate and returns the highest-payoff one, the
// first index winning ties; the candidate at index current gets the
// stickiness discount.
//
// Within one call a candidate's utility depends on its rate alone, and
// candidates often share one (a single-type fill, the mixed fill whose
// bottleneck is that type, the held allocation), so best evaluates the
// utility once per distinct rate, remembering the first NumTypes of
// them. FuzzFindAllocMatchesReference checks it against evaluating
// every candidate.
func (p *probe) best(st *sched.JobState, ctx *sched.Context, cands []cluster.Alloc, current int) (candidate, bool) {
	j := st.Job
	age := ctx.Now - j.Arrival
	if age < 0 {
		age = 0
	}
	var memoRate, memoUtility [gpu.NumTypes]float64
	memoLen := 0
	bestIdx := -1
	var best candidate
	for i, a := range cands {
		rate := sched.Rate(j, p.free.Cluster(), a)
		if rate <= 0 {
			continue
		}
		k := 0
		//lint:ignore floateq memo key: the utility is a pure function of the rate here, so bitwise-equal rates have bitwise-equal utilities
		for k < memoLen && memoRate[k] != rate {
			k++
		}
		var utility float64
		if k < memoLen {
			utility = memoUtility[k]
		} else {
			utility = p.opts.Utility.Value(j, st.Remaining, age+st.Remaining/rate)
			if memoLen < len(memoRate) {
				memoRate[memoLen], memoUtility[memoLen] = rate, utility
				memoLen++
			}
		}
		// Cost and node count read the raw placement list: candidate
		// generators emit at most one placement per (node, type) and no
		// zero counts, and both quantities are additive over duplicates
		// anyway, so skipping Canonical here cannot change them. Each
		// float64(…) rounds a product before the sum, so no port fuses
		// them into one multiply-add.
		cost := 0.0
		for _, pl := range a {
			cost += float64(p.pt.price(p.free, pl.Node, pl.Type) * float64(pl.Count))
		}
		if n := a.NumNodes(); n > 1 {
			cost *= 1 + float64(p.opts.CommCost*float64(n-1))
		}
		if i == current {
			cost *= 1 - p.opts.Stickiness
		}
		payoff := utility - cost
		if bestIdx < 0 || payoff > best.payoff {
			best = candidate{rate: rate, cost: cost, payoff: payoff}
			bestIdx = i
		}
	}
	if bestIdx < 0 {
		return candidate{}, false
	}
	best.alloc = cands[bestIdx]
	return best, true
}

// retain copies a winner out of the candidate arena, in canonical form,
// into the round's retain arena and returns the carved copy: what the
// passes allocate on the state and hand out. The arena grows
// geometrically, and earlier carves stay valid because it is never
// truncated within a round: a growth moves later carves to a new array
// and leaves the earlier ones where they were.
func (p *probe) retain(a cluster.Alloc) cluster.Alloc {
	mark := len(p.retainArena)
	p.retainArena = a.AppendCanonical(p.retainArena)
	return p.retainArena[mark:len(p.retainArena):len(p.retainArena)]
}

// appendCand adds a to the candidate list unless an identical placement
// list is already present. Dropping payoff-equal duplicates before the
// pricing loop cannot change the winner: identical placements price
// identically, and the first index attaining the best payoff wins.
func appendCand(cands []cluster.Alloc, a cluster.Alloc) []cluster.Alloc {
	for _, b := range cands {
		// Entry by entry, no canonicalization: candidate generators emit
		// deterministic orders, so duplicates really are elementwise equal.
		if slices.Equal(b, a) {
			return cands
		}
	}
	return append(cands, a)
}

// fillOption is one candidate node in fillType's price-ordered fallback
// scan.
type fillOption struct {
	node  int
	price float64
	speed float64
	avail int
}

// appendSingleType is sched.PlaceSingleType building its placements in
// the shared arena: the returned Alloc aliases arena storage and is
// only valid until the arena is recycled.
func appendSingleType(arena *[]cluster.Placement, free *cluster.State, t gpu.Type, w int) (cluster.Alloc, bool) {
	if free.FreeOfType(t) < w {
		return nil, false
	}
	mark := len(*arena)
	*arena, _ = sched.AppendConsolidated(*arena, free, t, w)
	return carve(arena, mark), true
}

// carve returns the arena's tail beyond mark as an independent-length
// allocation. The full slice expression caps it so later arena appends
// can never write through it.
func carve(arena *[]cluster.Placement, mark int) cluster.Alloc {
	a := *arena
	return cluster.Alloc(a[mark:len(a):len(a)])
}

// fillOneType is fillTypes for a single type, avoiding the one-element
// slice the multi-type signature would need.
func (p *probe) fillOneType(arena *[]cluster.Placement, workers int, t gpu.Type) (cluster.Alloc, bool) {
	mark := len(*arena)
	if need := p.fillType(arena, workers, t); need > 0 {
		*arena = (*arena)[:mark]
		return nil, false
	}
	return carve(arena, mark), true
}

// fillTypes builds an allocation of exactly workers devices drawn from
// the given types (earlier types preferred), choosing nodes by ascending
// dual price, then descending node speed, then descending free count.
// ok is false if the types jointly lack free capacity. Placements land
// in the shared arena; the fallback node scan sorts in the probe's
// scratch buffer, reused across all FIND_ALLOC calls of a round.
func (p *probe) fillTypes(arena *[]cluster.Placement, workers int, types []gpu.Type) (cluster.Alloc, bool) {
	mark := len(*arena)
	need := workers
	for _, t := range types {
		if need = p.fillType(arena, need, t); need == 0 {
			break
		}
	}
	if need > 0 {
		*arena = (*arena)[:mark]
		return nil, false
	}
	return carve(arena, mark), true
}

// fillType appends up to need devices of type t in price order and
// returns the unmet need.
//
// When every node holding t has the same capacity and every node runs
// at the same speed, the price order needs no prices at all: Eq. 5's
// curve is monotone non-decreasing in utilization, so "cheapest first"
// is "most free first", and every tiebreak the full comparator would
// consult (price ties -> equal speed -> descending free -> ascending
// node ID) collapses to the bucket index's native order (free
// descending, node ascending). That equivalence holds even where the
// curve plateaus (rounded-equal prices, or the +Inf price of a type no
// job uses), because the free-count tiebreak takes over exactly there.
// Heterogeneous capacities or straggler speeds fall back to the exact
// priced scan, now a top-k selection: consuming need devices touches at
// most need nodes, so only the first need entries of the sorted order
// are ever read, and the comparator's ascending-node-ID tail makes that
// prefix unique.
func (p *probe) fillType(arena *[]cluster.Placement, need int, t gpu.Type) int {
	if need == 0 || p.free.FreeOfType(t) == 0 {
		return need
	}
	if p.uniformFill[t] {
		*arena, need = sched.AppendConsolidated(*arena, p.free, t, need)
		return need
	}
	opts := p.fillScratch[:0]
	c := p.free.Cluster()
	for _, n := range p.free.FreeNodes(t, p.free.Scratch()) {
		opts = append(opts, fillOption{
			node:  n.Node,
			price: p.pt.price(p.free, n.Node, t),
			speed: c.Speed(n.Node),
			avail: n.Free,
		})
	}
	p.fillScratch = opts
	k := need
	if k > len(opts) {
		k = len(opts)
	}
	selectCheapest(opts, k)
	for _, o := range opts[:k] {
		if need == 0 {
			break
		}
		take := o.avail
		if take > need {
			take = need
		}
		*arena = append(*arena, cluster.Placement{Node: o.node, Type: t, Count: take})
		need -= take
	}
	return need
}

// fillLess is fillType's fallback ordering: ascending dual price, then
// descending node speed, then descending free count, then ascending
// node ID. The node-ID tail makes it a strict total order, so every
// sorted prefix is unique. It is a package-level function, not a
// closure, so sorting allocates nothing.
func fillLess(a, b fillOption) bool {
	if a.price < b.price {
		return true
	}
	if a.price > b.price {
		return false
	}
	if a.speed > b.speed {
		return true
	}
	if a.speed < b.speed {
		return false
	}
	if a.avail != b.avail {
		return a.avail > b.avail
	}
	return a.node < b.node
}

// selectCheapest moves the k smallest options (by fillLess) to opts[:k]
// in sorted order: a partial selection sort, O(k*n) instead of a full
// sort's O(n log n) — and k (the device need) is tiny next to n (nodes
// holding the type) at warehouse scale.
func selectCheapest(opts []fillOption, k int) {
	for i := 0; i < k && i < len(opts); i++ {
		minIdx := i
		for j := i + 1; j < len(opts); j++ {
			if fillLess(opts[j], opts[minIdx]) {
				minIdx = j
			}
		}
		opts[i], opts[minIdx] = opts[minIdx], opts[i]
	}
}
