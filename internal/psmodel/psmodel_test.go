package psmodel

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/gpu"
)

func TestDefaultsValid(t *testing.T) {
	cfg := DefaultConfig(2)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(DefaultModels()) != 5 {
		t.Errorf("DefaultModels = %d entries, want 5", len(DefaultModels()))
	}
	for _, m := range DefaultModels() {
		if m.ParamBytes <= 0 || m.FLOPsPerSample <= 0 || m.BatchPerWorker <= 0 ||
			m.ComputeEfficiency <= 0 || m.ComputeEfficiency > 1 ||
			m.Overlap < 0 || m.Overlap >= 1 {
			t.Errorf("model %s has invalid parameters: %+v", m.Name, m)
		}
	}
}

func TestModelByName(t *testing.T) {
	if _, ok := ModelByName("ResNet-50"); !ok {
		t.Error("ResNet-50 missing")
	}
	if _, ok := ModelByName("GPT-5"); ok {
		t.Error("unknown model found")
	}
}

func TestComputeTimeOrdering(t *testing.T) {
	acc := DefaultAccelerators()
	m, _ := ModelByName("ResNet-50")
	v := ComputeTime(m, acc[gpu.V100])
	p := ComputeTime(m, acc[gpu.P100])
	k := ComputeTime(m, acc[gpu.K80])
	if !(v < p && p < k) {
		t.Errorf("compute times not ordered: V100=%v P100=%v K80=%v", v, p, k)
	}
}

func TestSyncTimeIndependentOfAccelerator(t *testing.T) {
	m, _ := ModelByName("LSTM")
	net := DefaultNetwork()
	if SyncTime(m, net, 2) != SyncTime(m, net, 2) {
		t.Error("sync time not deterministic")
	}
	// Larger gangs contend on PS bandwidth: sync never gets faster.
	if SyncTime(m, net, 8) < SyncTime(m, net, 2) {
		t.Error("sync time decreased with gang size")
	}
}

func TestResNet50HeterogeneityDerivation(t *testing.T) {
	// The derived V100:K80 speedup for ResNet-50 should land near the
	// ~10x the paper quotes from measurements.
	cfg := DefaultConfig(1)
	m, _ := ModelByName("ResNet-50")
	ratio, err := cfg.SpeedupRatio(m, gpu.V100, gpu.K80)
	if err != nil {
		t.Fatal(err)
	}
	if ratio < 6 || ratio > 14 {
		t.Errorf("ResNet-50 derived V100:K80 speedup = %.1f, want ~10", ratio)
	}
}

func TestCommunicationBoundModelsSeeSmallerSpeedups(t *testing.T) {
	// LSTM's sync-heavy iterations should yield a smaller V100:K80
	// speedup than compute-bound ResNet-50 — the heterogeneity spread
	// the paper's motivation relies on.
	cfg := DefaultConfig(4)
	resnet, _ := ModelByName("ResNet-50")
	lstm, _ := ModelByName("LSTM")
	rRatio, err := cfg.SpeedupRatio(resnet, gpu.V100, gpu.K80)
	if err != nil {
		t.Fatal(err)
	}
	lRatio, err := cfg.SpeedupRatio(lstm, gpu.V100, gpu.K80)
	if err != nil {
		t.Fatal(err)
	}
	if lRatio >= rRatio {
		t.Errorf("LSTM speedup %.1f not smaller than ResNet-50's %.1f", lRatio, rRatio)
	}
}

func TestCommunicationFractionGrowsWithGang(t *testing.T) {
	m, _ := ModelByName("Transformer")
	small := DefaultConfig(1)
	big := DefaultConfig(16)
	fs, err := small.CommunicationFraction(m, gpu.V100)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := big.CommunicationFraction(m, gpu.V100)
	if err != nil {
		t.Fatal(err)
	}
	if !(fb > fs) {
		t.Errorf("comm fraction did not grow with gang: 1 worker %.3f vs 16 workers %.3f", fs, fb)
	}
	if fs <= 0 || fb >= 1 {
		t.Errorf("comm fractions out of (0,1): %v %v", fs, fb)
	}
}

func TestThroughputMatrixCompleteAndPositive(t *testing.T) {
	cfg := DefaultConfig(2)
	for _, m := range DefaultModels() {
		matrix, err := cfg.ThroughputMatrix(m)
		if err != nil {
			t.Fatal(err)
		}
		for typ := range cfg.Accelerators {
			if x := matrix[typ]; x <= 0 || math.IsInf(x, 0) || math.IsNaN(x) {
				t.Errorf("%s on %v: invalid throughput %v", m.Name, typ, x)
			}
		}
		if matrix[gpu.V100] <= matrix[gpu.K80] {
			t.Errorf("%s: V100 not faster than K80", m.Name)
		}
	}
}

func TestDerivedRatiosTrackCatalogDirection(t *testing.T) {
	// For each model, the derived V100:P100 and V100:K80 ratios should
	// exceed 1 and the K80 gap should exceed the P100 gap, matching the
	// workload catalog's ordering.
	cfg := DefaultConfig(2)
	for _, m := range DefaultModels() {
		p, err := cfg.SpeedupRatio(m, gpu.V100, gpu.P100)
		if err != nil {
			t.Fatal(err)
		}
		k, err := cfg.SpeedupRatio(m, gpu.V100, gpu.K80)
		if err != nil {
			t.Fatal(err)
		}
		if !(k > p && p > 1) {
			t.Errorf("%s ratios unordered: V100:P100=%.2f V100:K80=%.2f", m.Name, p, k)
		}
	}
}

func TestIterationTimeErrors(t *testing.T) {
	cfg := DefaultConfig(0)
	m, _ := ModelByName("LSTM")
	if _, err := cfg.IterationTime(m, gpu.V100); err == nil {
		t.Error("zero gang accepted")
	}
	cfg = DefaultConfig(1)
	cfg.Accelerators = map[gpu.Type]Accelerator{gpu.V100: {Type: gpu.V100, TFLOPS: 100}}
	if _, err := cfg.IterationTime(m, gpu.K80); err == nil {
		t.Error("missing accelerator profile accepted")
	}
}

func TestValidateRejectsBadNetwork(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Network.WorkerGbps = 0
	if err := cfg.Validate(); err == nil {
		t.Error("zero worker bandwidth accepted")
	}
}

// Property: throughput decreases (or stays equal) as gang size grows,
// because the synchronization barrier never gets cheaper.
func TestThroughputMonotoneInGangProperty(t *testing.T) {
	m, _ := ModelByName("CycleGAN")
	prop := func(a, b uint8) bool {
		w1 := int(a%16) + 1
		w2 := w1 + int(b%16) + 1
		x1, err1 := DefaultConfig(w1).Throughput(m, gpu.P100)
		x2, err2 := DefaultConfig(w2).Throughput(m, gpu.P100)
		if err1 != nil || err2 != nil {
			return false
		}
		return x2 <= x1+1e-12
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: a faster network never lowers throughput.
func TestThroughputMonotoneInBandwidthProperty(t *testing.T) {
	m, _ := ModelByName("Transformer")
	prop := func(g uint8) bool {
		base := DefaultConfig(4)
		fast := DefaultConfig(4)
		fast.Network.WorkerGbps = base.Network.WorkerGbps * (1 + float64(g%10))
		fast.Network.PSAggregateGbps = base.Network.PSAggregateGbps * (1 + float64(g%10))
		xb, err1 := base.Throughput(m, gpu.V100)
		xf, err2 := fast.Throughput(m, gpu.V100)
		return err1 == nil && err2 == nil && xf >= xb-1e-12
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
