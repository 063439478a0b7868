package sim_test

import (
	"hash/fnv"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// referenceDigest wraps a scheduler and folds each round's decisions the
// way the golden-digest recorder in determinism_test.go does: the
// decision map's keys sorted, each allocation canonicalised on its own,
// and FNV-64a fed one byte at a time. unordered counts the rounds whose
// job list was not in ascending ID order.
type referenceDigest struct {
	inner     sched.Scheduler
	sum       uint64
	unordered int
}

func (d *referenceDigest) Name() string { return d.inner.Name() }

func (d *referenceDigest) Schedule(ctx *sched.Context) map[int]cluster.Alloc {
	if !sort.SliceIsSorted(ctx.Jobs, func(a, b int) bool { return ctx.Jobs[a].Job.ID < ctx.Jobs[b].Job.ID }) {
		d.unordered++
	}
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
	for id := range out {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if out[id].Workers() == 0 {
			continue
		}
		write(id)
		for _, p := range out[id].AppendCanonical(nil) {
			write(p.Node)
			write(int(p.Type))
			write(p.Count)
		}
	}
	d.sum = d.sum*1099511628211 + h.Sum64()
	return out
}

// TestDigestWithActiveSetOutOfIDOrder runs Hadar over jobs whose IDs
// descend as their arrival times ascend, so the active set is never in
// ID order, and cancels one of them mid-run. After every round the
// engine's digest must equal the reference fold of the same decisions.
func TestDigestWithActiveSetOutOfIDOrder(t *testing.T) {
	cfg := trace.DefaultConfig()
	cfg.NumJobs = 40
	jobs, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		j.ID = 1000 - 7*i
	}
	ref := &referenceDigest{inner: core.New(core.DefaultOptions())}
	eng, err := sim.NewEngine(experiments.SimCluster(), ref, sim.ValidatedOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if err := eng.SubmitJob(j); err != nil {
			t.Fatal(err)
		}
	}
	cancelled := false
	for rounds := 0; eng.HasPendingEvents(); rounds++ {
		if err := eng.ProcessNextEvent(); err != nil {
			t.Fatal(err)
		}
		if got := eng.Digest(); got != ref.sum {
			t.Fatalf("round %d: engine digest %#x, reference %#x", eng.Round()-1, got, ref.sum)
		}
		if !cancelled && rounds >= 30 && eng.ActiveJobs() > 2 {
			// Cancel a job from the middle of the active set.
			active := eng.Snapshot().Active
			if err := eng.CancelJob(active[len(active)/2].ID); err != nil {
				t.Fatal(err)
			}
			cancelled = true
		}
	}
	if !cancelled {
		t.Fatal("the run ended before a job could be cancelled")
	}
	if ref.unordered == 0 {
		t.Fatal("no round saw its active set out of ID order")
	}
	if _, err := eng.Finish(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d rounds out of ID order", ref.unordered)
}
