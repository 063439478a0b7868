package trace

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/gpu"
)

func TestCatalogMatchesTableII(t *testing.T) {
	want := map[string]struct {
		dataset string
		size    SizeClass
	}{
		"ResNet-50":   {"ImageNet", XLarge},
		"ResNet-18":   {"CIFAR-10", Small},
		"LSTM":        {"Wikitext-2", Large},
		"CycleGAN":    {"monet2photo", Medium},
		"Transformer": {"Multi30K (de-en)", Large},
	}
	if len(Catalog()) != len(want) {
		t.Fatalf("catalog has %d entries, want %d", len(Catalog()), len(want))
	}
	for _, m := range Catalog() {
		w, ok := want[m.Name]
		if !ok {
			t.Errorf("unexpected catalog model %s", m.Name)
			continue
		}
		if m.Dataset != w.dataset || m.Size != w.size {
			t.Errorf("%s: dataset/size = %s/%v, want %s/%v", m.Name, m.Dataset, m.Size, w.dataset, w.size)
		}
	}
}

func TestResNet50HeterogeneityRatio(t *testing.T) {
	m, ok := ModelByName("ResNet-50")
	if !ok {
		t.Fatal("ResNet-50 missing")
	}
	ratio := m.Throughput[gpu.V100] / m.Throughput[gpu.K80]
	if math.Abs(ratio-10) > 0.5 {
		t.Errorf("ResNet-50 V100/K80 ratio = %v, want ~10 (paper)", ratio)
	}
}

func TestAllModelsFasterOnV100(t *testing.T) {
	for _, m := range Catalog() {
		if m.Throughput[gpu.V100] <= m.Throughput[gpu.P100] ||
			m.Throughput[gpu.P100] <= m.Throughput[gpu.K80] {
			t.Errorf("%s throughputs not ordered V100 > P100 > K80: %v", m.Name, m.Throughput)
		}
		for typ, x := range m.Throughput {
			if x <= 0 {
				t.Errorf("%s has non-positive throughput on %v", m.Name, typ)
			}
		}
	}
}

func TestModelByNameMissing(t *testing.T) {
	if _, ok := ModelByName("BERT"); ok {
		t.Error("ModelByName found a model not in Table II")
	}
}

// TestModelsForClassCoversAllClasses: Generate samples a model within
// the sampled size class, so every class needs at least one catalog
// model.
func TestModelsForClassCoversAllClasses(t *testing.T) {
	var models [numSizeClasses]int
	for _, m := range Catalog() {
		models[m.Size]++
	}
	for c := SizeClass(0); c < numSizeClasses; c++ {
		if models[c] == 0 {
			t.Errorf("no models for class %v", c)
		}
	}
}

func TestSizeClassStrings(t *testing.T) {
	want := map[SizeClass]string{Small: "S", Medium: "M", Large: "L", XLarge: "XL"}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(c), c.String(), s)
		}
	}
}

func TestGPUHourRanges(t *testing.T) {
	cases := map[SizeClass][2]float64{
		Small: {0.1, 1}, Medium: {1, 10}, Large: {10, 50}, XLarge: {60, 100},
	}
	for c, r := range cases {
		lo, hi := c.GPUHourRange()
		if lo != r[0] || hi != r[1] {
			t.Errorf("%v range = [%v,%v), want [%v,%v)", c, lo, hi, r[0], r[1])
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumJobs = 50
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Model != b[i].Model || a[i].Workers != b[i].Workers ||
			a[i].Epochs != b[i].Epochs || a[i].Arrival != b[i].Arrival {
			t.Fatalf("job %d differs between same-seed generations", i)
		}
	}
}

// TestGenerateBytesPinned pins Generate across commits: the SHA-256 of
// the trace.Write bytes of the paper's 480-job workload for every
// arrival pattern and seeds 1-2. The root package's golden digests see
// only the static pattern's first seed.
func TestGenerateBytesPinned(t *testing.T) {
	want := map[string]string{
		"static/1":  "5b6fc129541c3324ac3e1a2d3e1088f716bae92933554bfa5690b02fb2132c0b",
		"static/2":  "8868a691631d916ed028f053740ae4090a1700f054e270b27ea85328f2b72670",
		"poisson/1": "317acf0de2eebfefd8375f64ab21fc9132c936251ad007d269965faefd57ded5",
		"poisson/2": "627304e4c084830a33e667d5e5947b0200bb952edcb27f5e4e6d22a923f93b78",
		"diurnal/1": "b8c4751b0782ac2f5761cc0d14b9cf023f45cfe41092f83b3f96652568edfd54",
		"diurnal/2": "10947827d35fe235babbfe050c3cf561977dad5aada779ad6dc5a6f8348eab0b",
	}
	for _, p := range []Pattern{Static, Poisson, Diurnal} {
		for seed := int64(1); seed <= 2; seed++ {
			cfg := DefaultConfig()
			cfg.Pattern, cfg.Seed, cfg.Amplitude = p, seed, 0.5
			jobs, err := Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := Write(&buf, jobs); err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%v/%d", p, seed)
			if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want[name] {
				t.Errorf("%s: trace bytes hash to %s, want %s", name, got, want[name])
			}
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumJobs = 50
	a, _ := Generate(cfg)
	cfg.Seed = 2
	b, _ := Generate(cfg)
	same := true
	for i := range a {
		if a[i].Model != b[i].Model || a[i].Epochs != b[i].Epochs {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestGenerateStaticArrivals(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumJobs = 20
	jobs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if j.Arrival != 0 {
			t.Errorf("%v: static trace job has nonzero arrival", j)
		}
	}
}

func TestGeneratePoissonArrivalsIncreasing(t *testing.T) {
	cfg := Config{NumJobs: 100, Seed: 3, Pattern: Poisson, Rate: 0.01}
	jobs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, j := range jobs {
		if j.Arrival <= prev {
			t.Fatalf("arrivals not strictly increasing: %v after %v", j.Arrival, prev)
		}
		prev = j.Arrival
	}
	// Mean interarrival should approximate 1/Rate.
	mean := jobs[len(jobs)-1].Arrival / float64(len(jobs))
	if mean < 50 || mean > 200 {
		t.Errorf("mean interarrival = %vs, want ~100s", mean)
	}
}

func TestGenerateDemandMatchesSizeClass(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumJobs = 200
	jobs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		spec, ok := ModelByName(j.Model)
		if !ok {
			t.Fatalf("job %d references unknown model %s", j.ID, j.Model)
		}
		lo, hi := spec.Size.GPUHourRange()
		gh := j.GPUHours()
		// Epoch rounding can push demand slightly above the sampled
		// value; allow one epoch of slack.
		slack := float64(spec.ItersPerEpoch) / j.Throughput[gpu.V100] * float64(j.Workers) / 3600
		if gh < lo-slack || gh > hi+slack {
			t.Errorf("job %d (%s): %.2f GPU-hours outside class %v range [%v,%v)",
				j.ID, j.Model, gh, spec.Size, lo, hi)
		}
	}
}

func TestGenerateAllJobsValid(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumJobs = 480
	jobs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 480 {
		t.Fatalf("generated %d jobs, want 480", len(jobs))
	}
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			t.Errorf("invalid generated job: %v", err)
		}
	}
}

func TestGenerateWorkerDistribution(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumJobs = 2000
	jobs, _ := Generate(cfg)
	counts := map[int]int{}
	for _, j := range jobs {
		counts[j.Workers]++
	}
	if counts[1] < counts[2] || counts[2] < counts[8] || counts[8] < counts[16] {
		t.Errorf("worker distribution not skewed small: %v", counts)
	}
	for w := range counts {
		switch w {
		case 1, 2, 4, 8, 16:
		default:
			t.Errorf("unexpected gang size %d", w)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{NumJobs: 0},
		{NumJobs: 5, Pattern: Poisson, Rate: 0},
		{NumJobs: 5, WorkerChoices: []int{1, 2}, WorkerWeights: []float64{1}},
		{NumJobs: 5, WorkerChoices: []int{0}, WorkerWeights: []float64{1}},
		{NumJobs: 5, WorkerChoices: []int{1, 2}, WorkerWeights: []float64{0, 0}},
		{NumJobs: 5, WorkerChoices: []int{1, 2}, WorkerWeights: []float64{-1, 2}},
		{NumJobs: 5, WorkerWeights: []float64{1}},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestCustomWorkerChoices(t *testing.T) {
	cfg := Config{NumJobs: 50, Seed: 1, WorkerChoices: []int{3}, WorkerWeights: []float64{1}}
	jobs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if j.Workers != 3 {
			t.Fatalf("job has %d workers, want 3", j.Workers)
		}
	}
}

func TestPrototypeWorkload(t *testing.T) {
	jobs := PrototypeWorkload(7)
	if len(jobs) != 10 {
		t.Fatalf("prototype workload has %d jobs, want 10", len(jobs))
	}
	models := map[string]bool{}
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			t.Errorf("invalid prototype job: %v", err)
		}
		models[j.Model] = true
	}
	if len(models) != 5 {
		t.Errorf("prototype workload uses %d models, want all 5", len(models))
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumJobs = 25
	cfg.Pattern = Poisson
	cfg.Rate = 0.01
	jobs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, jobs); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(jobs) {
		t.Fatalf("round trip lost jobs: %d -> %d", len(jobs), len(back))
	}
	for i := range jobs {
		a, b := jobs[i], back[i]
		if a.ID != b.ID || a.Model != b.Model || a.Workers != b.Workers ||
			a.Epochs != b.Epochs || a.ItersPerEpoch != b.ItersPerEpoch ||
			a.Arrival != b.Arrival {
			t.Errorf("job %d mutated in round trip: %+v vs %+v", i, a, b)
		}
		for typ, x := range a.Throughput {
			if b.Throughput[typ] != x {
				t.Errorf("job %d throughput %v mutated", i, typ)
			}
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewBufferString("{not json")); err == nil {
		t.Error("garbage input accepted")
	}
	if _, err := Read(bytes.NewBufferString(`[{"id":1,"workers":0}]`)); err == nil {
		t.Error("invalid job accepted")
	}
	if _, err := Read(bytes.NewBufferString(`[{"id":1,"workers":1,"epochs":1,"iters_per_epoch":1,"throughput_iters_per_s":{"H100":5}}]`)); err == nil {
		t.Error("unknown GPU type accepted")
	}
}

func TestFromDemandEpochRounding(t *testing.T) {
	spec, _ := ModelByName("ResNet-18")
	j, err := FromDemand(0, spec, 1, 0.0001, 0) // tiny demand
	if err != nil {
		t.Fatal(err)
	}
	if j.Epochs < 1 {
		t.Errorf("epochs = %d, want >= 1", j.Epochs)
	}
}

// TestFromDemandRejectsHostileDemand: demand reaches FromDemand from
// HTTP bodies and trace rows; values that used to wrap into a valid
// 1-epoch job are errors.
func TestFromDemandRejectsHostileDemand(t *testing.T) {
	spec, _ := ModelByName("ResNet-50")
	for _, hours := range []float64{-5, 0, 1e300, math.Inf(1), math.Inf(-1), math.NaN()} {
		if j, err := FromDemand(0, spec, 2, hours, 0); err == nil {
			t.Errorf("FromDemand(gpuHours=%v) = %v, want an error", hours, j)
		}
	}
}

// Property: FromDemand preserves the sampled GPU-hour demand up to one
// epoch of rounding for any model and gang size.
func TestFromDemandPreservesDemandProperty(t *testing.T) {
	prop := func(modelIdx, wIdx uint8, hoursRaw uint16) bool {
		spec := Catalog()[int(modelIdx)%len(Catalog())]
		workers := []int{1, 2, 4, 8}[wIdx%4]
		hours := 0.1 + float64(hoursRaw%1000)/10 // 0.1 .. 100
		j, err := FromDemand(0, spec, workers, hours, 0)
		if err != nil {
			return false
		}
		slack := float64(spec.ItersPerEpoch) / j.Throughput[gpu.V100] * float64(workers) / 3600
		return math.Abs(j.GPUHours()-hours) <= slack+1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestDiurnalArrivalsIncreasing(t *testing.T) {
	cfg := Config{NumJobs: 200, Seed: 11, Pattern: Diurnal, Rate: 0.005, Amplitude: 0.8}
	jobs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, j := range jobs {
		if j.Arrival <= prev {
			t.Fatalf("arrivals not strictly increasing: %v after %v", j.Arrival, prev)
		}
		prev = j.Arrival
	}
}

func TestDiurnalDayNightDensity(t *testing.T) {
	// With a strong amplitude, day-phase (sin > 0) hours must receive
	// more arrivals than night-phase hours.
	cfg := Config{NumJobs: 4000, Seed: 3, Pattern: Diurnal, Rate: 0.02, Amplitude: 0.9}
	jobs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const day = 86400.0
	dayCount, nightCount := 0, 0
	for _, j := range jobs {
		phase := math.Mod(j.Arrival, day) / day
		if phase < 0.5 { // sin positive in the first half-period
			dayCount++
		} else {
			nightCount++
		}
	}
	if dayCount <= nightCount {
		t.Errorf("diurnal density flat: %d day vs %d night arrivals", dayCount, nightCount)
	}
	ratio := float64(dayCount) / float64(nightCount)
	if ratio < 1.5 {
		t.Errorf("day/night ratio = %.2f, want > 1.5 at amplitude 0.9", ratio)
	}
}

func TestDiurnalZeroAmplitudeMatchesMeanRate(t *testing.T) {
	cfg := Config{NumJobs: 2000, Seed: 5, Pattern: Diurnal, Rate: 0.01, Amplitude: 0}
	jobs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	span := jobs[len(jobs)-1].Arrival
	gotRate := float64(len(jobs)) / span
	if math.Abs(gotRate-0.01) > 0.002 {
		t.Errorf("mean rate = %v, want ~0.01", gotRate)
	}
}

func TestDiurnalValidation(t *testing.T) {
	if _, err := Generate(Config{NumJobs: 5, Pattern: Diurnal, Rate: 0}); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := Generate(Config{NumJobs: 5, Pattern: Diurnal, Rate: 1, Amplitude: 1.5}); err == nil {
		t.Error("amplitude >= 1 accepted")
	}
}

func TestPatternStrings(t *testing.T) {
	if Static.String() != "static" || Poisson.String() != "poisson" || Diurnal.String() != "diurnal" {
		t.Error("pattern strings wrong")
	}
	if Pattern(9).String() == "" {
		t.Error("unknown pattern stringer empty")
	}
}

func TestParsePattern(t *testing.T) {
	for _, p := range []Pattern{Static, Poisson, Diurnal} {
		got, err := ParsePattern(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePattern(%q) = %v, %v; want %v", p.String(), got, err, p)
		}
	}
	for _, name := range []string{"bursty", "", "possion"} {
		if _, err := ParsePattern(name); err == nil {
			t.Errorf("ParsePattern(%q) accepted", name)
		}
	}
}

func TestAnalyzeStaticTrace(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumJobs = 200
	jobs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := Analyze(jobs)
	if st.Jobs != 200 {
		t.Errorf("Jobs = %d", st.Jobs)
	}
	total := 0
	for _, n := range st.ByClass {
		total += n
	}
	if total != 200 {
		t.Errorf("class counts sum to %d", total)
	}
	if st.TotalGPUHours <= 0 || st.GPUHours.Mean <= 0 {
		t.Error("demand stats empty")
	}
	if st.Span != 0 {
		t.Errorf("static trace span = %v", st.Span)
	}
	out := st.String()
	for _, frag := range []string{"GPU-hours", "classes:", "gang sizes:", "static"} {
		if !strings.Contains(out, frag) {
			t.Errorf("summary missing %q:\n%s", frag, out)
		}
	}
}

func TestAnalyzePoissonTrace(t *testing.T) {
	cfg := Config{NumJobs: 100, Seed: 2, Pattern: Poisson, Rate: 0.01}
	jobs, _ := Generate(cfg)
	st := Analyze(jobs)
	if st.Span <= 0 || st.Interarrival.Count != 99 {
		t.Errorf("arrival stats: span=%v count=%d", st.Span, st.Interarrival.Count)
	}
	if math.Abs(st.Interarrival.Mean-100) > 40 {
		t.Errorf("mean interarrival = %v, want ~100", st.Interarrival.Mean)
	}
}

func TestClassOfBoundaries(t *testing.T) {
	cases := []struct {
		hours float64
		want  SizeClass
	}{
		{0.5, Small}, {1, Medium}, {9.99, Medium}, {10, Large},
		{49.9, Large}, {55, XLarge}, {500, XLarge},
	}
	for _, c := range cases {
		if got := classOf(c.hours); got != c.want {
			t.Errorf("classOf(%v) = %v, want %v", c.hours, got, c.want)
		}
	}
}
