// Package trace provides the evaluation workload model of the Hadar
// paper: the Table II catalog of DNN training workloads with their
// per-accelerator throughputs, and a synthetic generator reproducing the
// paper's sampling recipe over the Microsoft Philly trace (heavy-tailed
// GPU-hour buckets; static, Poisson or diurnal arrivals). The Philly
// trace itself is not in the repository, so nothing here reads it; a
// trace file is the JSON that Write produces.
package trace

import (
	"fmt"

	"repro/internal/bug"
	"repro/internal/gpu"
	"repro/internal/job"
)

// SizeClass buckets jobs by total GPU-hours, exactly as the paper
// categorizes the Philly trace ("Small (0-1 GPU-hours), Medium (1-10),
// Large (10-50), and XLarge (60-100)").
type SizeClass int

// Size classes in ascending resource demand.
const (
	Small SizeClass = iota
	Medium
	Large
	XLarge
	numSizeClasses
)

// String names the size class as in Table II ("S", "M", "L", "XL").
func (s SizeClass) String() string {
	switch s {
	case Small:
		return "S"
	case Medium:
		return "M"
	case Large:
		return "L"
	case XLarge:
		return "XL"
	}
	return fmt.Sprintf("SizeClass(%d)", int(s))
}

// GPUHourRange returns the [lo, hi) GPU-hour interval of the class.
func (s SizeClass) GPUHourRange() (lo, hi float64) {
	switch s {
	case Small:
		return 0.1, 1 // lower bound >0 so every job has real work
	case Medium:
		return 1, 10
	case Large:
		return 10, 50
	case XLarge:
		return 60, 100
	}
	bug.Failf("trace: invalid size class %d", int(s))
	return 0, 0 // unreachable: Failf panics
}

// ModelSpec is one row of Table II plus the throughput profile used as
// scheduling input (X_j^r, iterations per second per worker).
//
// The V100/P100/K80 ratios are calibrated to the heterogeneity the paper
// reports (e.g. ResNet-50 trains ~10x faster on V100 than K80, while
// other models see smaller speedups); T4 and K520 extend the profile to
// the AWS prototype's devices. Absolute magnitudes only set the time
// scale and cancel out of all relative metrics.
type ModelSpec struct {
	Name          string
	Task          string
	Dataset       string
	Size          SizeClass
	ItersPerEpoch int
	Throughput    job.Rates
}

var catalog = []ModelSpec{
	{
		Name: "ResNet-50", Task: "Image Classification", Dataset: "ImageNet",
		Size: XLarge, ItersPerEpoch: 1000,
		Throughput: job.Rates{
			gpu.V100: 60, gpu.P100: 30, gpu.K80: 6, gpu.T4: 25, gpu.K520: 4,
		},
	},
	{
		Name: "ResNet-18", Task: "Image Classification", Dataset: "CIFAR-10",
		Size: Small, ItersPerEpoch: 400,
		Throughput: job.Rates{
			gpu.V100: 300, gpu.P100: 180, gpu.K80: 60, gpu.T4: 150, gpu.K520: 40,
		},
	},
	{
		Name: "LSTM", Task: "Language Modeling", Dataset: "Wikitext-2",
		Size: Large, ItersPerEpoch: 600,
		Throughput: job.Rates{
			gpu.V100: 80, gpu.P100: 48, gpu.K80: 16, gpu.T4: 40, gpu.K520: 10,
		},
	},
	{
		Name: "CycleGAN", Task: "Image-to-Image Translation", Dataset: "monet2photo",
		Size: Medium, ItersPerEpoch: 250,
		Throughput: job.Rates{
			gpu.V100: 30, gpu.P100: 18, gpu.K80: 7.5, gpu.T4: 15, gpu.K520: 5,
		},
	},
	{
		Name: "Transformer", Task: "Language Translation", Dataset: "Multi30K (de-en)",
		Size: Large, ItersPerEpoch: 600,
		Throughput: job.Rates{
			gpu.V100: 100, gpu.P100: 55, gpu.K80: 20, gpu.T4: 50, gpu.K520: 13,
		},
	},
}

// Catalog returns the Table II workloads. The returned slice is the
// package's own and must not be modified.
func Catalog() []ModelSpec { return catalog }

// ModelByName finds a catalog entry by its Table II name.
func ModelByName(name string) (ModelSpec, bool) {
	for _, m := range catalog {
		if m.Name == name {
			return m, true
		}
	}
	return ModelSpec{}, false
}
