package job

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/gpu"
)

func sample() *Job {
	return &Job{
		ID:            1,
		Name:          "resnet50-1",
		Model:         "ResNet-50",
		Workers:       4,
		Epochs:        10,
		ItersPerEpoch: 100,
		Arrival:       5,
		Throughput: Rates{
			gpu.V100: 10,
			gpu.P100: 5,
			gpu.K80:  1,
		},
	}
}

func TestTotalIters(t *testing.T) {
	if got := sample().TotalIters(); got != 1000 {
		t.Errorf("TotalIters = %v, want 1000", got)
	}
}

func TestSpeed(t *testing.T) {
	j := sample()
	if j.Speed(gpu.V100) != 10 {
		t.Error("Speed(V100) wrong")
	}
	if j.Speed(gpu.T4) != 0 {
		t.Error("Speed of unusable type should be 0")
	}
}

func TestBestWorstType(t *testing.T) {
	j := sample()
	best, bx, ok := j.BestType()
	if !ok || best != gpu.V100 || bx != 10 {
		t.Errorf("BestType = %v,%v,%v", best, bx, ok)
	}
	worst, wx, ok := j.WorstType()
	if !ok || worst != gpu.K80 || wx != 1 {
		t.Errorf("WorstType = %v,%v,%v", worst, wx, ok)
	}
}

func TestBestTypeNoUsable(t *testing.T) {
	j := &Job{Workers: 1, Epochs: 1, ItersPerEpoch: 1, Throughput: Rates{}}
	if _, _, ok := j.BestType(); ok {
		t.Error("BestType reported usable type on empty throughput map")
	}
	if _, _, ok := j.WorstType(); ok {
		t.Error("WorstType reported usable type on empty throughput map")
	}
	if !math.IsInf(j.MinDuration(), 1) || !math.IsInf(j.MaxDuration(), 1) {
		t.Error("durations of unusable job should be +Inf")
	}
}

func TestMinMaxDuration(t *testing.T) {
	j := sample()
	// 1000 iters, 4 workers, fastest 10 iter/s -> 25s; slowest 1 -> 250s.
	if got := j.MinDuration(); got != 25 {
		t.Errorf("MinDuration = %v, want 25", got)
	}
	if got := j.MaxDuration(); got != 250 {
		t.Errorf("MaxDuration = %v, want 250", got)
	}
}

func TestGPUHours(t *testing.T) {
	j := sample()
	want := 25.0 * 4 / 3600
	if got := j.GPUHours(); math.Abs(got-want) > 1e-12 {
		t.Errorf("GPUHours = %v, want %v", got, want)
	}
}

func TestValidateOK(t *testing.T) {
	if err := sample().Validate(); err != nil {
		t.Errorf("Validate of valid job: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Job)
	}{
		{"zero workers", func(j *Job) { j.Workers = 0 }},
		{"negative workers", func(j *Job) { j.Workers = -1 }},
		{"zero epochs", func(j *Job) { j.Epochs = 0 }},
		{"zero iters", func(j *Job) { j.ItersPerEpoch = 0 }},
		{"negative arrival", func(j *Job) { j.Arrival = -1 }},
		{"NaN arrival", func(j *Job) { j.Arrival = math.NaN() }},
		{"negative throughput", func(j *Job) { j.Throughput[gpu.V100] = -1 }},
		{"NaN throughput", func(j *Job) { j.Throughput[gpu.V100] = math.NaN() }},
		{"no usable type", func(j *Job) { j.Throughput = Rates{gpu.V100: 0} }},
	}
	for _, c := range cases {
		j := sample()
		c.mutate(j)
		if err := j.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid job", c.name)
		}
	}
}

func TestStringIncludesEssentials(t *testing.T) {
	s := sample().String()
	for _, frag := range []string{"job 1", "ResNet-50", "W=4"} {
		if !contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && index(s, sub) >= 0
}

func index(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// Property: MinDuration <= MaxDuration for any job with positive
// throughputs on multiple types.
func TestDurationOrderingProperty(t *testing.T) {
	prop := func(a, b, c uint8, w uint8) bool {
		xa, xb, xc := float64(a)+1, float64(b)+1, float64(c)+1
		j := &Job{
			Workers: int(w%8) + 1, Epochs: 10, ItersPerEpoch: 10,
			Throughput: Rates{gpu.V100: xa, gpu.P100: xb, gpu.K80: xc},
		}
		return j.MinDuration() <= j.MaxDuration()+1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: scaling all throughputs by k scales durations by 1/k.
func TestDurationScalingProperty(t *testing.T) {
	prop := func(x uint8, k uint8) bool {
		speed := float64(x%100) + 1
		scale := float64(k%10) + 1
		j1 := &Job{Workers: 2, Epochs: 5, ItersPerEpoch: 20,
			Throughput: Rates{gpu.V100: speed}}
		j2 := &Job{Workers: 2, Epochs: 5, ItersPerEpoch: 20,
			Throughput: Rates{gpu.V100: speed * scale}}
		return math.Abs(j1.MinDuration()/scale-j2.MinDuration()) < 1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
