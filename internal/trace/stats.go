package trace

import (
	"fmt"
	"strings"

	"repro/internal/job"
	"repro/internal/stats"
)

// Stats summarizes a trace the way the paper characterizes the Philly
// workload: size-class mix, gang-size distribution, aggregate demand,
// and the arrival process.
type Stats struct {
	Jobs int
	// ByClass counts jobs per size class (classified by GPU-hours, the
	// paper's bucketing).
	ByClass map[SizeClass]int
	// ByWorkers counts jobs per gang size.
	ByWorkers map[int]int
	// ByModel counts jobs per catalog model.
	ByModel map[string]int
	// GPUHours summarizes per-job demand; TotalGPUHours is the aggregate
	// work (at best-type rates).
	GPUHours      stats.Summary
	TotalGPUHours float64
	// Interarrival summarizes gaps between consecutive arrivals (zero
	// Count for static traces); Span is last arrival minus first.
	Interarrival stats.Summary
	Span         float64
}

// Analyze computes trace statistics.
func Analyze(jobs []*job.Job) Stats {
	st := Stats{
		Jobs:      len(jobs),
		ByClass:   make(map[SizeClass]int),
		ByWorkers: make(map[int]int),
		ByModel:   make(map[string]int),
	}
	var hours, gaps []float64
	prev := -1.0
	for _, j := range jobs {
		gh := j.GPUHours()
		hours = append(hours, gh)
		st.TotalGPUHours += gh
		st.ByClass[classOf(gh)]++
		st.ByWorkers[j.Workers]++
		st.ByModel[j.Model]++
		if prev >= 0 {
			gaps = append(gaps, j.Arrival-prev)
		}
		prev = j.Arrival
	}
	st.GPUHours = stats.Summarize(hours)
	if len(jobs) > 0 {
		st.Span = jobs[len(jobs)-1].Arrival - jobs[0].Arrival
	}
	if st.Span > 0 {
		st.Interarrival = stats.Summarize(gaps)
	}
	return st
}

// classOf buckets a GPU-hour demand into the paper's size classes.
// Demands falling in the paper's unassigned gap (50-60 GPU-hours) join
// XLarge; demands beyond 100 stay XLarge too.
func classOf(gpuHours float64) SizeClass {
	switch {
	case gpuHours < 1:
		return Small
	case gpuHours < 10:
		return Medium
	case gpuHours < 50:
		return Large
	default:
		return XLarge
	}
}

// String renders the summary as a report.
func (s Stats) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "trace: %d jobs, %.0f total GPU-hours (mean %.1f, median %.1f, max %.1f per job)\n",
		s.Jobs, s.TotalGPUHours, s.GPUHours.Mean, s.GPUHours.Median, s.GPUHours.Max)
	fmt.Fprintf(&sb, "classes:")
	for c := SizeClass(0); c < numSizeClasses; c++ {
		fmt.Fprintf(&sb, " %s=%d", c, s.ByClass[c])
	}
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "gang sizes:")
	for _, w := range []int{1, 2, 4, 8, 16, 32} {
		if n, ok := s.ByWorkers[w]; ok {
			fmt.Fprintf(&sb, " %dx%d", w, n)
		}
	}
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "models:")
	for _, m := range Catalog() {
		if n, ok := s.ByModel[m.Name]; ok {
			fmt.Fprintf(&sb, " %s=%d", m.Name, n)
		}
	}
	sb.WriteByte('\n')
	if s.Span > 0 {
		fmt.Fprintf(&sb, "arrivals: span %.1fh, mean interarrival %.0fs (rate %.2f jobs/h)\n",
			s.Span/3600, s.Interarrival.Mean, 3600/s.Interarrival.Mean)
	} else {
		sb.WriteString("arrivals: static (all at t=0)\n")
	}
	return sb.String()
}
