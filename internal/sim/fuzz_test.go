package sim

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gavel"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/tiresias"
	"repro/internal/yarncs"
)

// FuzzSimRun drives the full simulator + scheduler + invariant-oracle
// stack with generated-but-valid workloads: every fuzz input is decoded
// into a placeable job set, a policy, and (optionally) failure windows,
// so any error out of Run is a real bug — either a policy violated the
// round protocol or the simulator broke one of the paper's invariants.
// The oracle is always on, turning silent accounting drift into a
// crashing input the fuzzer can minimize.
func FuzzSimRun(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint64(3), false)
	f.Add(uint64(0), uint64(0), uint64(0), true)
	f.Add(uint64(12345), uint64(999), uint64(42), true)
	f.Add(uint64(1<<40), uint64(7), uint64(1<<20), false)

	f.Fuzz(func(t *testing.T, jobBits, policyBits, faultBits uint64, modelCosts bool) {
		// Small fixed heterogeneous cluster: 3 nodes, 7 devices. Every
		// job gets positive throughput on all three types, so the
		// per-type pool floor is min(3, 2, 2) = 2 workers.
		c := cluster.New(gpu.Fleet{gpu.V100: 3}, gpu.Fleet{gpu.P100: 2}, gpu.Fleet{gpu.K80: 2})
		const maxWorkers = 2

		// Decode up to 4 jobs from jobBits, consuming a few bits per
		// field. All derived values are clamped into valid ranges.
		take := func(bits *uint64, n uint) uint64 {
			v := *bits & ((1 << n) - 1)
			*bits >>= n
			return v
		}
		numJobs := int(take(&jobBits, 2)) + 1
		jobs := make([]*job.Job, numJobs)
		for i := range jobs {
			workers := int(take(&jobBits, 1)) + 1 // 1..2 <= pool floor
			if workers > maxWorkers {
				workers = maxWorkers
			}
			iters := int(take(&jobBits, 10)) + 1 // 1..1024 iterations
			v := 1 + float64(take(&jobBits, 3))  // 1..8 it/s
			p := 0.5 + float64(take(&jobBits, 2))
			k := 0.25 + float64(take(&jobBits, 1))
			arrival := float64(take(&jobBits, 3)) * 360
			jobs[i] = &job.Job{
				ID: i, Model: "fuzz", Workers: workers, Arrival: arrival,
				Epochs: iters, ItersPerEpoch: 1,
				Throughput: job.Rates{gpu.V100: v, gpu.P100: p, gpu.K80: k},
			}
		}

		var s sched.Scheduler
		switch policyBits % 5 {
		case 0:
			s = core.New(core.DefaultOptions())
		case 1:
			s = gavel.New()
		case 2:
			s = tiresias.New()
		case 3:
			s = yarncs.New()
		default:
			s = policy.New(policy.SRTF)
		}

		opts := ValidatedOptions()
		opts.MaxRounds = 5000
		opts.UseModelCosts = modelCosts
		if faultBits&1 != 0 {
			node := int(faultBits>>1) % c.NumNodes()
			start := float64((faultBits>>3)%8) * 360
			length := float64((faultBits>>6)%4+1) * 360
			opts.Failures = []Failure{{Node: node, Start: start, End: start + length}}
		}

		rep, err := Run(c, jobs, s, opts)
		if err != nil {
			t.Fatalf("valid workload failed: %v", err)
		}
		if len(rep.Jobs) != len(jobs) {
			t.Fatalf("%d of %d jobs completed", len(rep.Jobs), len(jobs))
		}
	})
}

// FuzzFNVWrite checks fnvWrite against FNV-64a fed v's 8 little-endian
// bytes one at a time, from any starting state.
func FuzzFNVWrite(f *testing.F) {
	for _, v := range []int64{0, 1, 255, 256, 1 << 56, -1, math.MinInt64, math.MaxInt64} {
		f.Add(uint64(fnvOffset64), v)
	}
	f.Fuzz(func(t *testing.T, h uint64, v int64) {
		want := h
		u := uint64(int(v))
		for i := 0; i < 8; i++ {
			want ^= uint64(byte(u >> (8 * i)))
			want *= fnvPrime64
		}
		if got := fnvWrite(h, int(v)); got != want {
			t.Fatalf("fnvWrite(%#x, %d) = %#x, want %#x", h, int(v), got, want)
		}
	})
}
