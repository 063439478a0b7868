package repro

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gpu"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestSchedulerDeterminism runs the seed Philly-like trace through every
// scheduler twice and asserts the per-job schedules are identical. This
// is the regression guard for the hash-keyed DP memoization: Hadar's
// dual subroutine memoizes on the 64-bit free-state hash, and any
// nondeterminism there (map iteration order, hash instability) would
// show up as run-to-run schedule drift long before it corrupted a
// result enough to fail a coarser metric check.
func TestSchedulerDeterminism(t *testing.T) {
	core.PanicOnInconsistency = true
	numJobs := 480
	if testing.Short() {
		numJobs = 96
	}
	for _, p := range experiments.Policies {
		mk := p.New
		t.Run(mk().Name(), func(t *testing.T) {
			t.Parallel()
			first := scheduleFingerprint(t, mk(), numJobs)
			second := scheduleFingerprint(t, mk(), numJobs)
			if len(first) != len(second) {
				t.Fatalf("runs completed %d vs %d jobs", len(first), len(second))
			}
			for i := range first {
				if first[i] != second[i] {
					t.Errorf("job schedule differs between runs:\nrun 1: %s\nrun 2: %s",
						first[i], second[i])
				}
			}
		})
	}
}

// scheduleFingerprint simulates a freshly generated seed trace under a
// fresh scheduler and renders each job's schedule as one comparable
// line. Trace generation is seeded, so two calls see identical inputs.
func scheduleFingerprint(t *testing.T, s sched.Scheduler, numJobs int) []string {
	t.Helper()
	cfg := trace.DefaultConfig()
	cfg.NumJobs = numJobs
	jobs, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.Run(experiments.SimCluster(), jobs, s, sim.ValidatedOptions())
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, 0, len(r.Jobs))
	for _, j := range r.Jobs {
		out = append(out, fmt.Sprintf("job %d: start=%.9f finish=%.9f reallocs=%d",
			j.ID, j.Start, j.Finish, j.Reallocations))
	}
	return out
}

// digestRecorder wraps a scheduler and folds every round's canonical
// decisions into an FNV-64a digest: round index, then each allocated
// job's ID and its sorted (node, type, count) placements. Only integer
// decision data enters the hash, so the digest is stable across
// platforms and Go versions as long as the schedule itself is.
type digestRecorder struct {
	inner sched.Scheduler
	sum   uint64
}

func newDigestRecorder(s sched.Scheduler) *digestRecorder {
	return &digestRecorder{inner: s}
}

func (d *digestRecorder) Name() string { return d.inner.Name() }

func (d *digestRecorder) Schedule(ctx *sched.Context) map[int]cluster.Alloc {
	out := d.inner.Schedule(ctx)
	h := fnv.New64a()
	write := func(v int) {
		var b [8]byte
		u := uint64(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	write(ctx.Round)
	ids := make([]int, 0, len(out))
	for id, a := range out {
		if a.Workers() > 0 {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	for _, id := range ids {
		write(id)
		for _, p := range out[id].Canonical() {
			write(p.Node)
			write(int(p.Type))
			write(p.Count)
		}
	}
	// Chain rounds so reordering two rounds cannot cancel out.
	d.sum = d.sum*1099511628211 + h.Sum64()
	return out
}

// goldenDigests pins the exact schedule every policy produces on the
// seed trace. A change here means the policy's decisions changed — that
// can be intentional (algorithm work) but must never happen as a side
// effect of a refactor. On an intentional change, re-run the test: the
// failure message prints the observed digest to paste in here.
var goldenDigests = map[string]map[int]uint64{
	"hadar": {
		96:  0x21dcfe1575c93546,
		480: 0x7c16584a99c62b3b,
	},
	"gavel": {
		96:  0xab71ad9308963fc,
		480: 0xbe27a927b5c221db,
	},
	"tiresias": {
		96:  0x929fd660b56636a4,
		480: 0x6573f9a49b8fe1d8,
	},
	"yarn-cs": {
		96:  0x12a7dd07cabc1fcb,
		480: 0xbd66845097d08efa,
	},
	"hadar-makespan": {
		96:  0x84033596d382806f,
		480: 0x3198654896cb004c,
	},
	"ref-fifo-sticky": {
		96:  0xa9d182e7c76d699c,
		480: 0xb669ecca83e4d124,
	},
	"ref-srtf-sticky": {
		96:  0x127d6434e9875dbc,
		480: 0x9bfc8f921412d0fb,
	},
	// Hadar on stragglerCluster, where fillType prices node by node
	// (2 618 and 5 144 rounds).
	"hadar-straggler": {
		96:  0x2dd25b40066c2864,
		240: 0x96b61c246134f374,
	},
	// Hadar on ScaleCluster(1000): uniform capacities and speeds, so
	// every fill takes the price-free consolidated scan, and the queue
	// never outgrows the cluster, so every job is placed.
	"hadar-scale": {
		96:  0x55e2fded00e1bdda,
		480: 0x896673a04c4550d8,
	},
	// Every policy on SimCluster under outageWindows: what a policy
	// reads about a down node (capacity, per-type totals, the type
	// list, eta's total) is part of the schedule.
	"hadar-outage":           {96: 0x237f662ada77865},
	"gavel-outage":           {96: 0x26c1e0cc510ed2b7},
	"tiresias-outage":        {96: 0x4cc3d3f3834750d7},
	"yarn-cs-outage":         {96: 0xafd69792fa2668ac},
	"hadar-makespan-outage":  {96: 0xedefa62d8c67bc29},
	"ref-fifo-sticky-outage": {96: 0x479283602d93bf4d},
	"ref-srtf-sticky-outage": {96: 0x6c5e327a72970d44},
}

// outageWindows is two overlapping outages on SimCluster, both starting
// mid-round so running gangs are killed: every V100 node (0-4) is down
// for six rounds, inside a longer window that takes one P100 node and
// one K80 node, and the P100 node fails a second time later.
func outageWindows() []sim.Failure {
	out := []sim.Failure{
		{Node: 7, Start: 2500, End: 9000},
		{Node: 12, Start: 2500, End: 9000},
		{Node: 7, Start: 20000, End: 23000},
	}
	for n := 0; n < 5; n++ {
		out = append(out, sim.Failure{Node: n, Start: 3700, End: 5900})
	}
	return out
}

// stragglerCluster has mixed per-node capacities and three slow nodes,
// so neither of fillType's uniformity conditions holds and every
// placement goes through the priced per-node scan. SimCluster is
// uniform in both, and never reaches it.
func stragglerCluster() *cluster.Cluster {
	c := cluster.New(
		gpu.Fleet{gpu.V100: 4}, gpu.Fleet{gpu.V100: 2}, gpu.Fleet{gpu.V100: 4},
		gpu.Fleet{gpu.P100: 4}, gpu.Fleet{gpu.P100: 3}, gpu.Fleet{gpu.P100: 4},
		gpu.Fleet{gpu.K80: 4}, gpu.Fleet{gpu.K80: 1, gpu.V100: 1}, gpu.Fleet{gpu.K80: 4},
	)
	c.SetSpeed(1, 0.6)
	c.SetSpeed(4, 0.8)
	c.SetSpeed(8, 0.5)
	return c
}

// TestGoldenScheduleDigests replays the seed trace under every policy
// and compares the per-round allocation digest against the checked-in
// golden value. Unlike TestSchedulerDeterminism (same-process
// run-to-run drift), this catches cross-commit drift: an accidental
// behaviour change in any scheduler or in the simulator's round
// protocol fails here even if the new behaviour is itself
// deterministic.
func TestGoldenScheduleDigests(t *testing.T) {
	core.PanicOnInconsistency = true
	numJobs := 480
	if testing.Short() {
		numJobs = 96
	}
	// Every table policy on SimCluster, with and without outages, named
	// by the policy it builds, plus Hadar on stragglerCluster and on a
	// 1 000-node ScaleCluster.
	schedulers := map[string]func() sched.Scheduler{
		"hadar-straggler": experiments.NewHadar,
		"hadar-scale":     experiments.NewHadar,
	}
	for _, p := range experiments.Policies {
		name := p.New().Name()
		schedulers[name] = p.New
		schedulers[name+"-outage"] = p.New
	}
	for name, mk := range schedulers {
		mk := mk
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			c, numJobs, opts := experiments.SimCluster(), numJobs, sim.ValidatedOptions()
			switch name {
			case "hadar-straggler":
				c = stragglerCluster()
				if numJobs > 240 {
					numJobs = 240
				}
			case "hadar-scale":
				c = experiments.ScaleCluster(1000)
			}
			if strings.HasSuffix(name, "-outage") {
				opts.Failures = outageWindows()
				numJobs = 96
			}
			cfg := trace.DefaultConfig()
			cfg.NumJobs = numJobs
			jobs, err := trace.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rec := newDigestRecorder(mk())
			if _, err := sim.Run(c, jobs, rec, opts); err != nil {
				t.Fatal(err)
			}
			want, ok := goldenDigests[name][numJobs]
			if !ok {
				t.Fatalf("no golden digest for %s with %d jobs; observed %#x", name, numJobs, rec.sum)
			}
			if rec.sum != want {
				t.Errorf("schedule digest %#x, golden %#x — the %s schedule changed; "+
					"if intentional, update goldenDigests", rec.sum, want, name)
			}
		})
	}
}
