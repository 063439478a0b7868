package core

import (
	"math"
	"slices"

	"repro/internal/cluster"
	"repro/internal/gpu"
	"repro/internal/sched"
)

// priceTable holds the per-round dual price state: the per-type utility
// bounds U_max^r / U_min^r (Eq. 6-7) and the marginal price function
// k_h^r(gamma) (Eq. 5), evaluated against the current free state. The
// same walk over the jobs also yields the queue's payoff densities.
type priceTable struct {
	umax, umin  [gpu.NumTypes]float64
	exponential bool
	// curve[t][cap][used] caches at(t, used/cap) for every distinct
	// per-node capacity of type t among the up nodes, evaluated once
	// per round in fill with the exact same expression price would use,
	// so the per-probe hot path indexes two slices instead of calling
	// math.Pow. Fixed for the round; the rows are refilled in place.
	curve [gpu.NumTypes][][]float64
	// density[i] is ctx.Jobs[i]'s queue-ordering density for the round:
	// the utility of an immediate full-speed completion per requested
	// worker, and 0 for a job with no usable type or no remaining work.
	// orderQueue sorts by it.
	density []float64
}

// fill recomputes the table for a round: the utility bounds from the
// active job set, following Eq. 6-8 with remaining work substituted for
// total work (the online algorithm recomputes the bounds "based on the
// current workload of the cluster") and eta from defaultEta, then the
// curves. The scheduler owns one table and refills it every round, so
// it stays valid until the next Schedule.
//
// A job's best and worst rates are the first and last entries of its
// cached usable-type list, which is sorted by descending throughput, so
// one walk over the jobs reads each job's rates once and evaluates
// each of its two utilities once. The upper bound's utility, per
// worker, is also the job's queue density.
func (pt *priceTable) fill(ctx *sched.Context, opts *Options) {
	pt.exponential = opts.ExponentialPrice
	for t := gpu.Type(0); t < gpu.NumTypes; t++ {
		pt.umax[t] = 0
		pt.umin[t] = math.Inf(1)
	}
	pt.density = slices.Grow(pt.density[:0], len(ctx.Jobs))[:len(ctx.Jobs)]
	u := opts.Utility
	// eta scales every job's lower bound, so it needs a pass of its own.
	eta := defaultEta(ctx)
	for i, st := range ctx.Jobs {
		pt.density[i] = 0
		types := st.UsableTypes()
		rem := st.Remaining
		if len(types) == 0 || rem <= 0 {
			continue
		}
		j := st.Job
		w := float64(j.Workers)
		best, worst := j.Throughput[types[0]], j.Throughput[types[len(types)-1]]
		tmin := rem / (w * best)
		tmax := rem / (w * worst)
		age := ctx.Now - j.Arrival
		if age < 0 {
			age = 0
		}
		// Highest utility: finish as fast as possible from now.
		uBest := u.Value(j, rem, age+tmin) / w
		pt.density[i] = uBest
		// Lowest utility: finish only at the horizon T.
		horizonDur := ctx.Horizon - j.Arrival
		if horizonDur < age+tmax {
			horizonDur = age + tmax
		}
		uWorst := u.Value(j, rem, horizonDur) / (4 * eta * tmax * w)
		for _, t := range types {
			if uBest > pt.umax[t] {
				pt.umax[t] = uBest
			}
			if uWorst < pt.umin[t] {
				pt.umin[t] = uWorst
			}
		}
	}
	// Normalize degenerate bounds: the price function needs
	// 0 < umin < umax on every type any job can use.
	for t := gpu.Type(0); t < gpu.NumTypes; t++ {
		if pt.umax[t] <= 0 {
			continue // no job uses this type this round
		}
		if math.IsInf(pt.umin[t], 1) || pt.umin[t] <= 0 {
			pt.umin[t] = pt.umax[t] / (4 * eta)
		}
		if pt.umin[t] >= pt.umax[t] {
			pt.umin[t] = pt.umax[t] / math.E
		}
	}
	pt.fillCurves(ctx.Free)
}

// fillCurves evaluates the marginal price function once per (type,
// distinct node capacity, used count): the per-probe price lookup then
// reduces to two slice indexes. Each entry is computed with exactly the
// expression price would evaluate lazily, so cached and direct values
// are bit-identical. The distinct capacities come from the state's own
// per-capacity node counts, so the cost is independent of the node
// count. A row is made the first time its capacity has an up node and
// overwritten from then on; rows of capacities no up node has are never
// read (price gives a down node +Inf), so they may hold stale values.
func (pt *priceTable) fillCurves(free *cluster.State) {
	for t := gpu.Type(0); t < gpu.NumTypes; t++ {
		counts := free.CapacityCounts(t)
		if len(pt.curve[t]) != len(counts) {
			pt.curve[t] = make([][]float64, len(counts))
		}
		for cap, nodes := range counts {
			if nodes == 0 {
				continue
			}
			row := pt.curve[t][cap]
			if row == nil {
				row = make([]float64, cap+1)
				pt.curve[t][cap] = row
			}
			for used := range row {
				row[used] = pt.at(t, float64(used)/float64(cap))
			}
		}
	}
}

// defaultEta returns the scaling factor eta keeping the initial dual
// objective bounded (Theorem 2's proof requires
// 1/eta <= t_max_j * W_j / total capacity for all jobs).
func defaultEta(ctx *sched.Context) float64 {
	total := float64(ctx.Free.TotalCapacity())
	eta := 1.0
	for _, st := range ctx.Jobs {
		types := st.UsableTypes()
		if len(types) == 0 || st.Remaining <= 0 {
			continue
		}
		j := st.Job
		tmax := st.Remaining / (float64(j.Workers) * j.Throughput[types[len(types)-1]])
		if need := total / (tmax * float64(j.Workers)); need > eta {
			eta = need
		}
	}
	return eta
}

// price returns k_h^r evaluated at the node's current utilization, read
// from the free state: gamma = capacity - free (Eq. 5). Nodes without
// the type price at +Inf so they are never selected. The value comes
// from the precomputed curve, indexed by the node's capacity and used
// count. Capacity is read from the state's flat table, which prices a
// down node at zero capacity; this runs once per free node per probe in
// fillType's priced scan.
func (pt *priceTable) price(free *cluster.State, node int, t gpu.Type) float64 {
	cap := free.Capacity(node, t)
	if cap == 0 {
		return math.Inf(1)
	}
	return pt.curve[t][cap][cap-free.Free(node, t)]
}

// at evaluates the marginal price function k^r for type t at the given
// utilization fraction in [0, 1] (Eq. 5). Because Umin <= Umax after
// normalization, the curve is monotone non-decreasing in utilization —
// the property Theorem 2's charging argument needs and the invariant
// checker verifies each round.
func (pt *priceTable) at(t gpu.Type, frac float64) float64 {
	if pt.umax[t] <= 0 {
		return math.Inf(1)
	}
	if pt.exponential {
		return pt.umin[t] * math.Pow(pt.umax[t]/pt.umin[t], frac)
	}
	// float64(…) keeps the sum unfused on every platform.
	return pt.umin[t] + float64((pt.umax[t]-pt.umin[t])*frac)
}

// alpha returns the competitive-ratio factor
// alpha = max_r max(1, ln(Umax^r/Umin^r)) of Theorem 2 for the current
// bounds.
func (pt *priceTable) alpha() float64 {
	a := 1.0
	for t := gpu.Type(0); t < gpu.NumTypes; t++ {
		if pt.umax[t] <= 0 || pt.umin[t] <= 0 {
			continue
		}
		if l := math.Log(pt.umax[t] / pt.umin[t]); l > a {
			a = l
		}
	}
	return a
}
