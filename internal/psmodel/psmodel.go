// Package psmodel implements the data-parallel parameter-server
// training model of the paper's Section II: each worker holds a model
// replica, computes gradients over mini-batches, and synchronizes with
// parameter servers every iteration. The package derives a job's
// per-accelerator throughput X_j^r — the scheduler input the paper
// takes from measurements — from first principles:
//
//	iterationTime(r) = computeTime(r) + (1 - overlap) x syncTime
//	computeTime(r)   = batch FLOPs / accelerator throughput(r)
//	syncTime         = 2 x modelBytes / min(workerBW, psAggregateBW/W)
//
// so the heterogeneity ratios in the workload catalog
// (internal/trace) can be validated against a physical explanation, and
// what-if analyses (faster networks, bigger batches) become possible.
package psmodel

import (
	"fmt"
	"math"

	"repro/internal/gpu"
	"repro/internal/job"
)

// Accelerator describes a device type's sustained training throughput.
type Accelerator struct {
	Type gpu.Type
	// TFLOPS is the sustained mixed-precision training throughput in
	// teraFLOP/s. Values approximate public benchmark results.
	TFLOPS float64
	// MemGB bounds the per-device batch size (not enforced here but
	// reported by Fits).
	MemGB float64
}

// DefaultAccelerators returns sustained-throughput estimates for the
// five device types in the evaluation. Absolute values matter less than
// ratios; these track public per-device training benchmarks.
func DefaultAccelerators() map[gpu.Type]Accelerator {
	return map[gpu.Type]Accelerator{
		gpu.V100: {Type: gpu.V100, TFLOPS: 112, MemGB: 32},
		gpu.P100: {Type: gpu.P100, TFLOPS: 19, MemGB: 16},
		gpu.K80:  {Type: gpu.K80, TFLOPS: 4.1, MemGB: 12},
		gpu.T4:   {Type: gpu.T4, TFLOPS: 40, MemGB: 16},
		gpu.K520: {Type: gpu.K520, TFLOPS: 2.4, MemGB: 4},
	}
}

// Model describes a DNN's per-iteration work.
type Model struct {
	Name string
	// ParamBytes is the model size pushed/pulled per synchronization.
	ParamBytes float64
	// FLOPsPerSample is the forward+backward cost of one training
	// sample.
	FLOPsPerSample float64
	// BatchPerWorker is the per-worker mini-batch size.
	BatchPerWorker int
	// ComputeEfficiency scales the accelerator's peak to this model's
	// achieved fraction (kernel mix, memory-bound phases).
	ComputeEfficiency float64
	// Overlap is the fraction of synchronization traffic hidden under
	// backpropagation (wait-free pipelining); only (1-Overlap) of the
	// sync time is exposed in the iteration latency.
	Overlap float64
}

// DefaultModels returns per-iteration cost models for the Table II
// workloads, calibrated so that the derived throughput ratios track the
// catalog in internal/trace (e.g. ResNet-50's ~10x V100:K80 gap, the
// smaller gaps of communication-bound models).
func DefaultModels() []Model {
	return []Model{
		{Name: "ResNet-50", ParamBytes: 102e6, FLOPsPerSample: 8.2e9,
			BatchPerWorker: 64, ComputeEfficiency: 0.55, Overlap: 0.91},
		{Name: "ResNet-18", ParamBytes: 45e6, FLOPsPerSample: 1.8e9,
			BatchPerWorker: 128, ComputeEfficiency: 0.50, Overlap: 0.75},
		{Name: "LSTM", ParamBytes: 120e6, FLOPsPerSample: 2.6e9,
			BatchPerWorker: 80, ComputeEfficiency: 0.30, Overlap: 0.80},
		{Name: "CycleGAN", ParamBytes: 45e6, FLOPsPerSample: 55e9,
			BatchPerWorker: 4, ComputeEfficiency: 0.45, Overlap: 0.60},
		{Name: "Transformer", ParamBytes: 65e6, FLOPsPerSample: 2.2e9,
			BatchPerWorker: 96, ComputeEfficiency: 0.40, Overlap: 0.80},
	}
}

// ModelByName finds a default model.
func ModelByName(name string) (Model, bool) {
	for _, m := range DefaultModels() {
		if m.Name == name {
			return m, true
		}
	}
	return Model{}, false
}

// Network describes the synchronization fabric between workers and
// parameter servers.
type Network struct {
	// WorkerGbps is each worker's NIC bandwidth in gigabits/second.
	WorkerGbps float64
	// PSAggregateGbps is the total parameter-server ingest bandwidth.
	PSAggregateGbps float64
	// LatencySeconds is the fixed per-synchronization round-trip.
	LatencySeconds float64
}

// DefaultNetwork approximates the paper's AWS prototype fabric (10-25
// GbE instances, a handful of parameter servers).
func DefaultNetwork() Network {
	return Network{WorkerGbps: 10, PSAggregateGbps: 40, LatencySeconds: 0.002}
}

// Config bundles the pieces of the training model.
type Config struct {
	Accelerators map[gpu.Type]Accelerator
	Network      Network
	// Workers is the gang size W_j (sync cost grows with it).
	Workers int
}

// DefaultConfig returns the calibrated defaults for a gang of the given
// size.
func DefaultConfig(workers int) Config {
	return Config{
		Accelerators: DefaultAccelerators(),
		Network:      DefaultNetwork(),
		Workers:      workers,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Workers <= 0 {
		return fmt.Errorf("psmodel: non-positive gang size %d", c.Workers)
	}
	if len(c.Accelerators) == 0 {
		return fmt.Errorf("psmodel: no accelerators")
	}
	if c.Network.WorkerGbps <= 0 || c.Network.PSAggregateGbps <= 0 {
		return fmt.Errorf("psmodel: non-positive network bandwidth")
	}
	return nil
}

// ComputeTime returns one iteration's gradient computation time for the
// model on the accelerator, in seconds.
func ComputeTime(m Model, a Accelerator) float64 {
	if a.TFLOPS <= 0 || m.ComputeEfficiency <= 0 {
		return math.Inf(1)
	}
	flops := m.FLOPsPerSample * float64(m.BatchPerWorker)
	return flops / (a.TFLOPS * 1e12 * m.ComputeEfficiency)
}

// SyncTime returns one iteration's parameter synchronization time: each
// worker pushes gradients and pulls fresh parameters (2 x ParamBytes),
// bottlenecked by either its own NIC or its share of the PS ingest
// bandwidth when the whole gang synchronizes at once.
func SyncTime(m Model, net Network, workers int) float64 {
	perWorkerBps := net.WorkerGbps * 1e9 / 8
	psShareBps := net.PSAggregateGbps * 1e9 / 8 / float64(workers)
	bw := math.Min(perWorkerBps, psShareBps)
	if bw <= 0 {
		return math.Inf(1)
	}
	return 2*m.ParamBytes/bw + net.LatencySeconds
}

// IterationTime returns the full per-iteration latency on the given
// accelerator type under the config.
func (c Config) IterationTime(m Model, t gpu.Type) (float64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	a, ok := c.Accelerators[t]
	if !ok {
		return 0, fmt.Errorf("psmodel: no accelerator profile for %v", t)
	}
	exposed := SyncTime(m, c.Network, c.Workers) * (1 - m.Overlap)
	return ComputeTime(m, a) + exposed, nil
}

// Throughput returns X_j^r: iterations per second per worker for the
// model on accelerator type t.
func (c Config) Throughput(m Model, t gpu.Type) (float64, error) {
	it, err := c.IterationTime(m, t)
	if err != nil {
		return 0, err
	}
	if it <= 0 || math.IsInf(it, 1) {
		return 0, nil
	}
	return 1 / it, nil
}

// ThroughputMatrix derives the full X_j^r profile for a model across
// every configured accelerator type, the scheduler input of Table I.
func (c Config) ThroughputMatrix(m Model) (job.Rates, error) {
	if err := c.Validate(); err != nil {
		return job.Rates{}, err
	}
	var out job.Rates
	for t := gpu.Type(0); t < gpu.NumTypes; t++ {
		if _, ok := c.Accelerators[t]; !ok {
			continue
		}
		x, err := c.Throughput(m, t)
		if err != nil {
			return job.Rates{}, err
		}
		out[t] = x
	}
	return out, nil
}

// SpeedupRatio returns throughput(fast)/throughput(slow), the
// heterogeneity factor the paper motivates with (ResNet-50 at ~10x for
// V100:K80 while communication-bound models see much less).
func (c Config) SpeedupRatio(m Model, fast, slow gpu.Type) (float64, error) {
	xf, err := c.Throughput(m, fast)
	if err != nil {
		return 0, err
	}
	xs, err := c.Throughput(m, slow)
	if err != nil {
		return 0, err
	}
	if xs <= 0 {
		return math.Inf(1), nil
	}
	return xf / xs, nil
}

// CommunicationFraction returns the share of an iteration spent in
// synchronization on the given type — the quantity that explains why
// fast accelerators help some models less (Amdahl on the sync barrier).
func (c Config) CommunicationFraction(m Model, t gpu.Type) (float64, error) {
	it, err := c.IterationTime(m, t)
	if err != nil {
		return 0, err
	}
	if it <= 0 {
		return 0, nil
	}
	return SyncTime(m, c.Network, c.Workers) * (1 - m.Overlap) / it, nil
}
