package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"repro/internal/bug"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/stats"
)

// Pattern selects the job arrival process.
type Pattern int

const (
	// Static releases every job at time 0 (the paper's "static trace").
	Static Pattern = iota
	// Poisson draws exponential interarrival times with the configured
	// rate (the paper's "continuous trace").
	Poisson
	// Diurnal draws from a non-homogeneous Poisson process whose rate
	// oscillates over a 24-hour period: rate(t) = Rate x
	// (1 + Amplitude x sin(2 pi t / day)). Production traces (the paper
	// samples "the busiest hour range, hours 3-10") show exactly this
	// day/night pattern.
	Diurnal
)

// String names the pattern.
func (p Pattern) String() string {
	switch p {
	case Static:
		return "static"
	case Poisson:
		return "poisson"
	case Diurnal:
		return "diurnal"
	}
	return fmt.Sprintf("Pattern(%d)", int(p))
}

// ParsePattern is the inverse of Pattern.String; an unknown name is an
// error listing the valid ones.
func ParsePattern(name string) (Pattern, error) {
	for p := Static; p <= Diurnal; p++ {
		if name == p.String() {
			return p, nil
		}
	}
	return 0, fmt.Errorf("trace: unknown pattern %q (want %v, %v or %v)", name, Static, Poisson, Diurnal)
}

// Config parameterizes trace synthesis.
type Config struct {
	// NumJobs is the trace length; the paper samples 480 jobs.
	NumJobs int
	// Seed drives all sampling; identical configs produce identical
	// traces.
	Seed int64
	// Pattern selects static vs Poisson arrivals.
	Pattern Pattern
	// Rate is the Poisson arrival rate in jobs/second (ignored for
	// Static). The paper sweeps this as the "input job rate". For
	// Diurnal it is the mean rate around which the day/night cycle
	// oscillates.
	Rate float64
	// Amplitude is the relative day/night swing for Diurnal arrivals,
	// in [0, 1); 0 degenerates to Poisson. Ignored otherwise.
	Amplitude float64
	// WorkerChoices and WorkerWeights define the gang-size distribution.
	// Defaults follow the Philly trace's heavy small-job skew with a
	// heavy tail of large gangs: 1 GPU 45%, 2 GPUs 25%, 4 GPUs 14%,
	// 8 GPUs 10%, 16 GPUs 6%. The 16-GPU gangs approach the per-type
	// pool size of the paper's simulated cluster (20), which is what
	// makes job-level (single-accelerator-type) schedulers block while
	// Hadar's task-level gangs straddle types.
	WorkerChoices []int
	WorkerWeights []float64
}

// DefaultConfig returns the paper's simulation workload: 480 jobs.
func DefaultConfig() Config {
	return Config{
		NumJobs: 480,
		Seed:    1,
		Pattern: Static,
		Rate:    480.0 / (7 * 3600), // busiest-hours average if Poisson
	}
}

func (c *Config) workerDistribution() ([]int, []float64) {
	if len(c.WorkerChoices) > 0 {
		return c.WorkerChoices, c.WorkerWeights
	}
	return []int{1, 2, 4, 8, 16}, []float64{0.45, 0.25, 0.14, 0.1, 0.06}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.NumJobs <= 0 {
		return fmt.Errorf("trace: NumJobs must be positive, got %d", c.NumJobs)
	}
	if (c.Pattern == Poisson || c.Pattern == Diurnal) && c.Rate <= 0 {
		return fmt.Errorf("trace: %v pattern requires positive Rate, got %v", c.Pattern, c.Rate)
	}
	if c.Pattern == Diurnal && (c.Amplitude < 0 || c.Amplitude >= 1) {
		return fmt.Errorf("trace: Diurnal amplitude %v outside [0, 1)", c.Amplitude)
	}
	if len(c.WorkerChoices) == 0 && len(c.WorkerWeights) > 0 {
		return fmt.Errorf("trace: %d worker weights without worker choices", len(c.WorkerWeights))
	}
	choices, weights := c.workerDistribution()
	if len(choices) != len(weights) {
		return fmt.Errorf("trace: %d worker choices but %d weights", len(choices), len(weights))
	}
	for _, w := range choices {
		if w <= 0 {
			return fmt.Errorf("trace: non-positive worker choice %d", w)
		}
	}
	total := 0.0
	for _, w := range weights {
		if !(w >= 0) {
			return fmt.Errorf("trace: worker weight %v is not non-negative", w)
		}
		total += w
	}
	if !(total > 0) {
		return fmt.Errorf("trace: worker weights sum to %v, want positive", total)
	}
	return nil
}

// Generate synthesizes a trace per the paper's recipe: for each job,
// sample the size class uniformly, pick a model for the class, sample
// GPU-hours uniformly within the class range, and derive epochs so that
// the job's best-type runtime matches the sampled demand.
func Generate(cfg Config) ([]*job.Job, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var byClass [numSizeClasses][]ModelSpec
	for _, m := range catalog {
		byClass[m.Size] = append(byClass[m.Size], m)
	}
	rng := stats.NewRand(cfg.Seed)
	choices, weights := cfg.workerDistribution()
	jobs := make([]*job.Job, 0, cfg.NumJobs)
	now := 0.0
	for i := 0; i < cfg.NumJobs; i++ {
		class := SizeClass(rng.Intn(int(numSizeClasses)))
		models := byClass[class]
		spec := models[rng.Intn(len(models))]
		lo, hi := class.GPUHourRange()
		gpuHours := rng.Uniform(lo, hi)
		workers := choices[rng.Choice(weights)]
		arrival := 0.0
		switch cfg.Pattern {
		case Poisson:
			now += rng.Exponential(cfg.Rate)
			arrival = now
		case Diurnal:
			now = nextDiurnal(rng, now, cfg.Rate, cfg.Amplitude)
			arrival = now
		}
		j, err := FromDemand(i, spec, workers, gpuHours, arrival)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}

// nextDiurnal samples the next arrival of a non-homogeneous Poisson
// process with rate(t) = rate x (1 + amplitude x sin(2 pi t / day)),
// using Lewis-Shedler thinning against the peak rate.
func nextDiurnal(rng *stats.Rand, now, rate, amplitude float64) float64 {
	const day = 86400.0
	peak := rate * (1 + amplitude)
	t := now
	for {
		t += rng.Exponential(peak)
		lambda := rate * (1 + amplitude*math.Sin(2*math.Pi*t/day))
		if rng.Float64() <= lambda/peak {
			return t
		}
	}
}

// FromDemand builds a job of the given model whose best-type (V100 for
// all catalog entries) runtime equals gpuHours of aggregate GPU time
// spread over the gang, rounded up to whole epochs. The demand may
// come from outside the program (an HTTP body, a trace row), so it must
// be positive, finite, and small enough that the epoch count fits an
// int on every platform.
func FromDemand(id int, spec ModelSpec, workers int, gpuHours, arrival float64) (*job.Job, error) {
	if !(gpuHours > 0) || math.IsInf(gpuHours, 0) {
		return nil, fmt.Errorf("trace: job %d: GPU-hour demand %v is not positive and finite", id, gpuHours)
	}
	best := 0.0
	for _, x := range spec.Throughput {
		if x > best {
			best = x
		}
	}
	if best <= 0 {
		return nil, fmt.Errorf("trace: model %s has no usable type", spec.Name)
	}
	// gpuHours = duration * workers / 3600 and duration = iters/(workers
	// * best)  =>  iters = gpuHours * 3600 * best, independent of gang
	// size.
	iters := gpuHours * 3600 * best
	epochs := math.Ceil(iters / float64(spec.ItersPerEpoch))
	if epochs > math.MaxInt32 {
		return nil, fmt.Errorf("trace: job %d: GPU-hour demand %v needs %.3g epochs of %s, more than a job can hold",
			id, gpuHours, epochs, spec.Name)
	}
	if epochs < 1 {
		epochs = 1
	}
	j := &job.Job{
		ID:            id,
		Name:          spec.Name + "-" + strconv.Itoa(id),
		Model:         spec.Name,
		Workers:       workers,
		Epochs:        int(epochs),
		ItersPerEpoch: spec.ItersPerEpoch,
		Arrival:       arrival,
		Throughput:    spec.Throughput,
	}
	if err := j.Validate(); err != nil {
		return nil, err
	}
	return j, nil
}

// PrototypeWorkload returns the 10-job mixed workload of the paper's
// prototype experiment (Table III): jobs "of different models and sizes
// (GPU demands) from Table II".
func PrototypeWorkload(seed int64) []*job.Job {
	rng := stats.NewRand(seed)
	// Two jobs per catalog model, with modest demands so the 8-GPU
	// cluster finishes in tens of hours as in Table III. Gang sizes stay
	// within 2 because the prototype cluster has two devices per type
	// and the job-level baselines (Gavel, Tiresias) cannot split a gang
	// across types.
	demands := []struct {
		workers  int
		gpuHours float64
	}{
		{1, 0.5}, {2, 2}, {2, 6}, {1, 3}, {2, 10},
		{2, 8}, {1, 1}, {2, 4}, {2, 16}, {1, 2},
	}
	jobs := make([]*job.Job, 0, len(demands))
	for i, d := range demands {
		spec := catalog[i%len(catalog)]
		jitter := rng.Uniform(0.9, 1.1)
		j, err := FromDemand(i, spec, d.workers, d.gpuHours*jitter, 0)
		if err != nil {
			bug.Failf("trace: static demand table invalid: %v", err)
		}
		jobs = append(jobs, j)
	}
	return jobs
}

// jobJSON is the serialized form of a job in a trace file.
type jobJSON struct {
	ID            int                `json:"id"`
	Name          string             `json:"name"`
	Model         string             `json:"model"`
	Workers       int                `json:"workers"`
	Epochs        int                `json:"epochs"`
	ItersPerEpoch int                `json:"iters_per_epoch"`
	Arrival       float64            `json:"arrival_s"`
	Throughput    map[string]float64 `json:"throughput_iters_per_s"`
}

// Write serializes a trace as indented JSON, one array of jobs.
func Write(w io.Writer, jobs []*job.Job) error {
	out := make([]jobJSON, len(jobs))
	for i, j := range jobs {
		tp := make(map[string]float64, gpu.NumTypes)
		for t, x := range &j.Throughput {
			if x > 0 {
				tp[gpu.Type(t).String()] = x
			}
		}
		out[i] = jobJSON{
			ID: j.ID, Name: j.Name, Model: j.Model, Workers: j.Workers,
			Epochs: j.Epochs, ItersPerEpoch: j.ItersPerEpoch,
			Arrival: j.Arrival, Throughput: tp,
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Read parses a trace previously produced by Write and validates every
// job.
func Read(r io.Reader) ([]*job.Job, error) {
	var in []jobJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	jobs := make([]*job.Job, len(in))
	for i, jj := range in {
		// Sorted keys keep the error path deterministic when several
		// type names are unparseable.
		names := make([]string, 0, len(jj.Throughput))
		for name := range jj.Throughput {
			names = append(names, name)
		}
		sort.Strings(names)
		var tp job.Rates
		for _, name := range names {
			t, err := gpu.Parse(name)
			if err != nil {
				return nil, fmt.Errorf("trace: job %d: %w", jj.ID, err)
			}
			tp[t] = jj.Throughput[name]
		}
		j := &job.Job{
			ID: jj.ID, Name: jj.Name, Model: jj.Model, Workers: jj.Workers,
			Epochs: jj.Epochs, ItersPerEpoch: jj.ItersPerEpoch,
			Arrival: jj.Arrival, Throughput: tp,
		}
		if err := j.Validate(); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		jobs[i] = j
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].Arrival < jobs[b].Arrival })
	return jobs, nil
}
