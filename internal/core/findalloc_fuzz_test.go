package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/sched"
)

// referenceCandidates is FIND_ALLOC's generator loop as the paper
// states it, with duplicates dropped after building: a cheapest-node
// fill and a consolidated fill for every usable type, then every
// descending-throughput prefix of two or more types, then the job's
// current allocation when it still fits. probe.candidates must produce
// exactly this list.
func referenceCandidates(p *probe, st *sched.JobState) ([]cluster.Alloc, int) {
	j := st.Job
	types := sched.UsableTypes(j)
	var cands []cluster.Alloc
	var arena []cluster.Placement
	for _, t := range types {
		if a, ok := p.fillOneType(&arena, j.Workers, t); ok {
			cands = appendCand(cands, a)
		}
		if a, ok := appendSingleType(&arena, p.free, t, j.Workers); ok {
			cands = appendCand(cands, a)
		}
	}
	if p.opts.TaskLevel {
		for k := 2; k <= len(types); k++ {
			if a, ok := p.fillTypes(&arena, j.Workers, types[:k]); ok {
				cands = appendCand(cands, a)
			}
		}
	}
	current := -1
	if st.Running() && p.free.CanAllocate(st.Alloc) {
		current = len(cands)
		cands = append(cands, st.Alloc)
	}
	return cands, current
}

// Shape bits of FuzzFindAllocMatchesReference's mode byte.
const (
	fuzzMixedCaps  = 1 << iota // per-node capacities differ, nodes hold two types
	fuzzStragglers             // a few nodes run slow
	fuzzDownNodes              // a few nodes are down
	fuzzPartial                // the state is partially allocated
	fuzzTaskLevel              // Options.TaskLevel
	fuzzRunning                // the job holds an allocation from last round
	fuzzTiedSpeeds             // every usable type runs the job at one speed
)

// fuzzProbe builds a random round from the fuzz inputs: a cluster of
// up to 24 nodes over the first four types, its state (outages and a
// partial allocation per mode), the price table of a small queue, the
// probe bound to it, and the job under test, whose gang ranges up to
// beyond the cluster's free devices.
func fuzzProbe(t *testing.T, seed int64, nodes, gang, mode uint8) (*probe, *sched.Context, *sched.JobState) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	types := []gpu.Type{gpu.V100, gpu.P100, gpu.K80, gpu.T4}
	fleets := make([]gpu.Fleet, 1+int(nodes)%24)
	for i := range fleets {
		if mode&fuzzMixedCaps == 0 {
			fleets[i] = gpu.Fleet{types[i%len(types)]: 4}
			continue
		}
		fleets[i] = gpu.Fleet{types[rng.Intn(len(types))]: 1 + rng.Intn(8)}
		if rng.Intn(3) == 0 {
			fleets[i][types[rng.Intn(len(types))]] += 1 + rng.Intn(4)
		}
	}
	c := cluster.New(fleets...)
	if mode&fuzzStragglers != 0 {
		for k := 0; k < 3; k++ {
			c.SetSpeed(rng.Intn(len(fleets)), 0.4+0.5*rng.Float64())
		}
	}
	free := cluster.NewState(c)
	if mode&fuzzDownNodes != 0 {
		for k := 0; k < 1+len(fleets)/4; k++ {
			if err := free.SetDown(rng.Intn(len(fleets)), true); err != nil {
				t.Fatal(err)
			}
		}
	}

	mkJob := func(id int) *job.Job {
		j := &job.Job{ID: id, Model: "fuzz", Epochs: 1 + rng.Intn(5000), ItersPerEpoch: 10, Workers: 1 + rng.Intn(6)}
		tied := 1 + 9*rng.Float64()
		for _, ty := range types {
			if rng.Intn(4) == 0 {
				continue // unusable
			}
			if j.Throughput[ty] = 1 + 9*rng.Float64(); mode&fuzzTiedSpeeds != 0 {
				j.Throughput[ty] = tied
			}
		}
		if _, _, ok := j.BestType(); !ok {
			j.Throughput[types[rng.Intn(len(types))]] = tied
		}
		return j
	}
	j := mkJob(0)
	j.Workers = 1 + int(gang)%(free.TotalCapacity()+3)
	st := &sched.JobState{Job: j, Remaining: j.TotalIters() * (0.1 + 0.9*rng.Float64())}
	ctx := &sched.Context{Now: 360 * float64(rng.Intn(20)), RoundLength: 360, Free: free, Jobs: []*sched.JobState{st}}
	for id, others := 1, rng.Intn(6); id <= others; id++ {
		o := mkJob(id)
		ctx.Jobs = append(ctx.Jobs, &sched.JobState{Job: o, Remaining: o.TotalIters()})
	}
	for _, s := range ctx.Jobs {
		ctx.Horizon += s.Job.MaxDuration()
	}

	// The job's last-round allocation: Workers devices of usable types
	// wherever the cluster has them, which may or may not still fit.
	if mode&fuzzRunning != 0 {
		need := j.Workers
		for n := 0; n < len(fleets) && need > 0; n++ {
			for _, ty := range sched.UsableTypes(j) {
				if k := min(c.Capacity(n, ty), need); k > 0 {
					st.Alloc = append(st.Alloc, cluster.Placement{Node: n, Type: ty, Count: k})
					need -= k
				}
			}
		}
		if need > 0 {
			st.Alloc = nil
		}
	}

	opts := DefaultOptions()
	opts.TaskLevel = mode&fuzzTaskLevel != 0
	pt := newPriceTable(ctx, opts.Utility, true)
	if mode&fuzzPartial != 0 {
		for k := 0; k < len(fleets); k++ {
			n, ty := rng.Intn(len(fleets)), types[rng.Intn(len(types))]
			if f := free.Free(n, ty); f > 0 {
				if err := free.Allocate(cluster.Alloc{{Node: n, Type: ty, Count: 1 + rng.Intn(f)}}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	p := &probe{}
	p.bind(&opts, pt, free)
	return p, ctx, st
}

// FuzzFindAllocMatchesReference checks the pruned candidate generator
// against the paper's full generator loop on random rounds: uniform and
// mixed capacities, stragglers, down nodes, partially allocated states,
// gangs larger than any one type's free pool, and TaskLevel on and off.
// The candidate lists, the index of the sticky candidate, and the
// winner must all be identical.
func FuzzFindAllocMatchesReference(f *testing.F) {
	for mode := 0; mode < 1<<7; mode += 5 {
		f.Add(int64(mode), uint8(9+mode%13), uint8(mode%17), uint8(mode))
	}
	f.Add(int64(1), uint8(12), uint8(13), uint8(fuzzTaskLevel))                           // gang above every type's pool
	f.Add(int64(2), uint8(6), uint8(5), uint8(fuzzTaskLevel|fuzzPartial|fuzzRunning))     // uniform, partially allocated
	f.Add(int64(3), uint8(20), uint8(30), uint8(fuzzMixedCaps|fuzzDownNodes|fuzzPartial)) // mixed, no task level
	f.Fuzz(func(t *testing.T, seed int64, nodes, gang, mode uint8) {
		p, ctx, st := fuzzProbe(t, seed, nodes, gang, mode)
		hash := p.free.Hash()

		got, gotCur := p.candidates(st)
		got = cloneAllocs(got)
		want, wantCur := referenceCandidates(p, st)
		if gotCur != wantCur || !slices.EqualFunc(got, want, func(a, b cluster.Alloc) bool { return slices.Equal(a, b) }) {
			t.Fatalf("job %v on %d free devices:\npruned    %v (current %d)\nreference %v (current %d)",
				st.Job, p.free.TotalFree(), got, gotCur, want, wantCur)
		}

		win, ok := p.findAlloc(st, ctx)
		ref, refOK := p.best(st, ctx, want, wantCur)
		if ok != refOK || (ok && (!slices.Equal(win.alloc, ref.alloc) || win.payoff != ref.payoff)) { //lint:ignore floateq the same candidate priced twice
			t.Fatalf("winner %v (%v, ok %v), reference %v (%v, ok %v)", win.alloc, win.payoff, ok, ref.alloc, ref.payoff, refOK)
		}
		if p.free.Hash() != hash {
			t.Fatal("candidate generation changed the free state")
		}
	})
}

func cloneAllocs(as []cluster.Alloc) []cluster.Alloc {
	out := make([]cluster.Alloc, len(as))
	for i, a := range as {
		out[i] = slices.Clone(a)
	}
	return out
}
