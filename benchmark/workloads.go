package benchmark

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/job"
	"repro/internal/trace"
)

// Workload is one named set of inputs at its full size. The two sim-*
// workloads step a sim.Engine to completion on one goroutine; the two
// svc-* workloads drive a service.Service through the live web handler
// with closed-loop clients.
type Workload struct {
	Name string
	// Jobs is the trace length (sims) or the number of distinct
	// submissions (services).
	Jobs int
	// Nodes is the ScaleCluster size; 0 selects the paper's 15-node
	// SimCluster. Services always run on SimCluster.
	Nodes int
	// Service marks a svc-* workload; Durable adds the SyncAlways
	// journal, the crash and the recovery; Reader adds the GET client.
	Service bool
	Durable bool
	Reader  bool
	// Writers is the number of closed-loop POST clients.
	Writers int
	// DupEvery re-posts every DupEvery-th key once (0: never).
	DupEvery int
}

// Workloads returns the four workloads at the sizes BENCHMARK.json and
// README.md state.
func Workloads() []Workload {
	return []Workload{
		{Name: "sim-paper-480", Jobs: 480},
		{Name: "sim-scale-5k", Jobs: 2500, Nodes: 5000},
		{Name: "svc-durable", Jobs: 3000, Service: true, Durable: true, Writers: 2, DupEvery: 20},
		{Name: "svc-soak", Jobs: 4500, Service: true, Reader: true, Writers: 1},
	}
}

// WorkloadByName finds a workload.
func WorkloadByName(name string) (Workload, bool) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Shrunk divides the workload's size by div, for the discarded warm-up
// pass and for the harness tests. Small sizes keep a floor so every
// code path (duplicates, DP tail, reader) still runs.
func (w Workload) Shrunk(div int) Workload {
	w.Jobs = max(w.Jobs/div, 40)
	if w.Nodes > 0 {
		w.Nodes = max(w.Nodes/div, 60)
	}
	return w
}

func (w Workload) cluster() *cluster.Cluster {
	if w.Nodes > 0 {
		return experiments.ScaleCluster(w.Nodes)
	}
	return experiments.SimCluster()
}

// traceConfig is the paper's generator (static arrivals) at this
// workload's length.
func (w Workload) traceConfig(traceSeed int64) trace.Config {
	cfg := trace.DefaultConfig()
	cfg.NumJobs = w.Jobs
	cfg.Seed = traceSeed
	return cfg
}

// demandGPUHours is a trace's stated size: the GPU-hours its jobs need
// on their best accelerator type. Rounds to completion follow it within
// about one percent, which a job count alone does not.
func demandGPUHours(jobs []*job.Job) float64 {
	total := 0.0
	for _, j := range jobs {
		if _, best, ok := j.BestType(); ok {
			total += j.TotalIters() / best / 3600
		}
	}
	return total
}

// demandBand is how far a seed's trace may differ in demand from the
// seed-1 trace of the same length.
const demandBand = 0.01

// maxTraceDraws bounds the search for a trace inside the band; past it
// the closest draw is used.
const maxTraceDraws = 4000

// traceSeedFor maps the benchmark seed to a trace-generator seed. Seed
// 1 is the generator's own seed 1 — the paper trace, whose digest the
// repository's golden tests pin. Any other seed draws generator seeds
// from its own stream until one gives a trace whose demand lies within
// demandBand of the seed-1 trace: every seed then states the same input
// size (jobs and GPU-hours) with different jobs, so runs on different
// seeds measure the same amount of work.
func (w Workload) traceSeedFor(seed int64) (int64, error) {
	if seed == 1 {
		return 1, nil
	}
	ref, err := trace.Generate(w.traceConfig(1))
	if err != nil {
		return 0, err
	}
	want := demandGPUHours(ref)
	rng := rand.New(rand.NewSource(seed))
	best, bestOff := int64(0), math.Inf(1)
	for i := 0; i < maxTraceDraws; i++ {
		cand := rng.Int63()
		jobs, err := trace.Generate(w.traceConfig(cand))
		if err != nil {
			return 0, err
		}
		off := math.Abs(demandGPUHours(jobs)-want) / want
		if off < bestOff {
			best, bestOff = cand, off
		}
		if off <= demandBand {
			break
		}
	}
	return best, nil
}

// submission is one service job as a client sees it.
type submission struct {
	id      int
	key     string
	model   trace.ModelSpec
	workers int
	body    []byte // POST /api/jobs body
}

// gpuHoursPerJob makes every service job finish inside one round on
// its best type.
const gpuHoursPerJob = 0.05

// submissions builds the service workload's jobs from the seed: catalog
// models round-robin from a seeded offset, one or two workers each.
func (w Workload) submissions(seed int64) []submission {
	rng := rand.New(rand.NewSource(seed))
	catalog := trace.Catalog()
	offset := rng.Intn(len(catalog))
	subs := make([]submission, w.Jobs)
	for i := range subs {
		s := submission{
			id:      i + 1,
			key:     fmt.Sprintf("s%d-j%d", seed, i),
			model:   catalog[(i+offset)%len(catalog)],
			workers: 1 + rng.Intn(2),
		}
		s.body = []byte(fmt.Sprintf(`{"id":%d,"key":%q,"model":%q,"workers":%d,"gpu_hours":%g}`,
			s.id, s.key, s.model.Name, s.workers, gpuHoursPerJob))
		subs[i] = s
	}
	return subs
}

// job builds the engine job the web handler would build from the
// submission's body.
func (s submission) job() (*job.Job, error) {
	return trace.FromDemand(s.id, s.model, s.workers, gpuHoursPerJob, 0)
}

// postOrder lists the indices into the submissions in the order the
// writers claim them: each once, and after every DupEvery-th a second
// post of a key first sent ten posts earlier, which the service must
// answer from its idempotency ledger.
func (w Workload) postOrder() []int {
	order := make([]int, 0, w.Jobs+w.Jobs/max(w.DupEvery, 1))
	for i := 0; i < w.Jobs; i++ {
		order = append(order, i)
		if w.DupEvery > 0 && i%w.DupEvery == w.DupEvery-1 && i >= 10 {
			order = append(order, i-10)
		}
	}
	return order
}
