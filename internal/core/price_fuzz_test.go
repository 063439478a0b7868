package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/sched"
)

// referenceFill is priceTable.fill as it was before the fused walk: the
// bounds from each job's Job.BestType and Job.WorstType scans, the
// per-type fold over every type the job runs on, and eta from
// referenceEta. fill must produce bit-identical bounds and curves.
func referenceFill(pt *priceTable, ctx *sched.Context, u Utility, exponential bool) {
	pt.exponential = exponential
	for t := gpu.Type(0); t < gpu.NumTypes; t++ {
		pt.umax[t] = 0
		pt.umin[t] = math.Inf(1)
	}
	eta := referenceEta(ctx)
	for _, st := range ctx.Jobs {
		j := st.Job
		w := float64(j.Workers)
		_, best, ok := j.BestType()
		if !ok {
			continue
		}
		_, worst, _ := j.WorstType()
		rem := st.Remaining
		if rem <= 0 {
			continue
		}
		tmin := rem / (w * best)
		tmax := rem / (w * worst)
		age := ctx.Now - j.Arrival
		if age < 0 {
			age = 0
		}
		uBest := u.Value(j, rem, age+tmin) / w
		horizonDur := ctx.Horizon - j.Arrival
		if horizonDur < age+tmax {
			horizonDur = age + tmax
		}
		uWorst := u.Value(j, rem, horizonDur) / (4 * eta * tmax * w)
		for t := gpu.Type(0); t < gpu.NumTypes; t++ {
			if j.Speed(t) <= 0 {
				continue
			}
			if uBest > pt.umax[t] {
				pt.umax[t] = uBest
			}
			if uWorst < pt.umin[t] {
				pt.umin[t] = uWorst
			}
		}
	}
	for t := gpu.Type(0); t < gpu.NumTypes; t++ {
		if pt.umax[t] <= 0 {
			continue
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

// referenceEta is defaultEta as it was before, reading each job's worst
// rate from Job.WorstType.
func referenceEta(ctx *sched.Context) float64 {
	total := float64(ctx.Free.TotalCapacity())
	eta := 1.0
	for _, st := range ctx.Jobs {
		j := st.Job
		_, worst, ok := j.WorstType()
		if !ok || st.Remaining <= 0 {
			continue
		}
		tmax := st.Remaining / (float64(j.Workers) * worst)
		if need := total / (tmax * float64(j.Workers)); need > eta {
			eta = need
		}
	}
	return eta
}

// referenceDensity is the queue density orderQueue computed per job
// before fill did: the utility of a full-speed completion from now per
// worker, and 0 for a job with no usable type or no work left.
func referenceDensity(ctx *sched.Context, opts *Options, st *sched.JobState) float64 {
	j := st.Job
	_, best, ok := j.BestType()
	if !ok || st.Remaining <= 0 {
		return 0
	}
	age := ctx.Now - j.Arrival
	if age < 0 {
		age = 0
	}
	dur := age + st.Remaining/(float64(j.Workers)*best)
	return opts.Utility.Value(j, st.Remaining, dur) / float64(j.Workers)
}

// Shape bits of FuzzPriceBounds's mode byte; the utility takes the top
// two bits.
const (
	priceLinear   = 1 << iota // linear price function instead of Eq. 5's exponential
	priceTies                 // usable types often share one speed
	priceDone                 // some jobs have Remaining <= 0
	priceUnusable             // some jobs have no usable type
	priceDown                 // a few nodes are down
)

// FuzzPriceBounds checks the fused price-and-density walk against the
// three walks it replaced on random rounds: jobs with no work left and
// with no usable type, tied throughputs, arrivals after now, each of
// the four utilities, and exponential and linear prices. U_min, U_max,
// alpha, every curve cell and every queue density must be
// bit-identical.
func FuzzPriceBounds(f *testing.F) {
	for mode := 0; mode < 256; mode += 7 {
		f.Add(int64(mode), uint8(mode%23), uint8(mode))
	}
	f.Add(int64(1), uint8(12), uint8(priceTies))
	f.Add(int64(2), uint8(20), uint8(priceDone|priceUnusable|priceDown|priceLinear))
	f.Add(int64(3), uint8(0), uint8(3<<6))
	f.Fuzz(func(t *testing.T, seed int64, jobs, mode uint8) {
		ctx, opts := fuzzPriceRound(seed, jobs, mode)
		got := &priceTable{}
		got.fill(ctx, opts)
		want := &priceTable{}
		referenceFill(want, ctx, opts.Utility, opts.ExponentialPrice)

		same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
		for ty := gpu.Type(0); ty < gpu.NumTypes; ty++ {
			if !same(got.umin[ty], want.umin[ty]) || !same(got.umax[ty], want.umax[ty]) {
				t.Fatalf("%v bounds: fused [%v, %v], reference [%v, %v]",
					ty, got.umin[ty], got.umax[ty], want.umin[ty], want.umax[ty])
			}
			if len(got.curve[ty]) != len(want.curve[ty]) {
				t.Fatalf("%v: %d curve rows, reference %d", ty, len(got.curve[ty]), len(want.curve[ty]))
			}
			for c, row := range want.curve[ty] {
				if len(got.curve[ty][c]) != len(row) {
					t.Fatalf("%v capacity %d: %d cells, reference %d", ty, c, len(got.curve[ty][c]), len(row))
				}
				for used, x := range row {
					if !same(got.curve[ty][c][used], x) {
						t.Fatalf("%v capacity %d used %d: price %v, reference %v", ty, c, used, got.curve[ty][c][used], x)
					}
				}
			}
		}
		if !same(got.alpha(), want.alpha()) {
			t.Fatalf("alpha %v, reference %v", got.alpha(), want.alpha())
		}
		if len(got.density) != len(ctx.Jobs) {
			t.Fatalf("%d densities for %d jobs", len(got.density), len(ctx.Jobs))
		}
		for i, st := range ctx.Jobs {
			if d := referenceDensity(ctx, opts, st); !same(got.density[i], d) {
				t.Fatalf("job %d density %v, reference %v", st.Job.ID, got.density[i], d)
			}
		}
	})
}

// fuzzPriceRound builds a random round from the fuzz inputs: a cluster
// of up to 16 nodes with mixed per-node capacities over every type,
// outages per mode, and a queue of up to 24 jobs at a random time.
func fuzzPriceRound(seed int64, jobs, mode uint8) (*sched.Context, *Options) {
	rng := rand.New(rand.NewSource(seed))
	fleets := make([]gpu.Fleet, 1+rng.Intn(16))
	for i := range fleets {
		t := gpu.Type(rng.Intn(int(gpu.NumTypes)))
		fleets[i][t] = 1 + rng.Intn(8)
		if rng.Intn(3) == 0 {
			fleets[i][gpu.Type(rng.Intn(int(gpu.NumTypes)))] += 1 + rng.Intn(4)
		}
	}
	c := cluster.New(fleets...)
	free := cluster.NewState(c)
	if mode&priceDown != 0 {
		for k := 0; k < 1+len(fleets)/4; k++ {
			_ = free.SetDown(rng.Intn(len(fleets)), true)
		}
	}
	ctx := &sched.Context{Now: 360 * float64(rng.Intn(50)), RoundLength: 360, Free: free}
	for id := 0; id < int(jobs)%25; id++ {
		j := &job.Job{ID: id, Model: "fuzz", Epochs: 1 + rng.Intn(5000), ItersPerEpoch: 10,
			Workers: 1 + rng.Intn(8), Arrival: 360 * float64(rng.Intn(60))}
		tied := 0.5 + 9*rng.Float64()
		for ty := gpu.Type(0); ty < gpu.NumTypes; ty++ {
			if rng.Intn(3) == 0 {
				continue // unusable
			}
			j.Throughput[ty] = 0.5 + 9*rng.Float64()
			if mode&priceTies != 0 && rng.Intn(2) == 0 {
				j.Throughput[ty] = tied
			}
		}
		if mode&priceUnusable != 0 && rng.Intn(4) == 0 {
			j.Throughput = job.Rates{}
		}
		st := &sched.JobState{Job: j, Remaining: j.TotalIters() * rng.Float64()}
		if mode&priceDone != 0 && rng.Intn(4) == 0 {
			st.Remaining = -st.Remaining * float64(rng.Intn(2))
		}
		ctx.Jobs = append(ctx.Jobs, st)
		if d := j.MaxDuration(); !math.IsInf(d, 1) {
			ctx.Horizon += d * rng.Float64()
		}
	}
	ctx.Horizon += ctx.Now

	opts := DefaultOptions()
	opts.ExponentialPrice = mode&priceLinear == 0
	switch mode >> 6 {
	case 0:
		opts.Utility = InverseJCT{}
	case 1:
		opts.Utility = EffectiveThroughput{}
	case 2:
		opts.Utility = Balanced{}
	case 3:
		opts.Utility = FinishTimeFairness{Jobs: 1 + len(ctx.Jobs), TotalGPUs: c.TotalGPUs()}
	}
	return ctx, &opts
}
