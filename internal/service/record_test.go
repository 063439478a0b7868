package service

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gpu"
	"repro/internal/trace"
)

// TestWALRecordMatchesMarshal: appendWALRecord writes the bytes
// encoding/json writes for every journal record — submissions of
// generated jobs under keys and names that need escaping (quotes,
// control bytes, HTML, non-ASCII, invalid UTF-8, line separators),
// with arrivals and rates across encoding/json's notations,
// cancellations and round records.
func TestWALRecordMatchesMarshal(t *testing.T) {
	jobs, err := trace.Generate(trace.Config{NumJobs: 300, Seed: 5, Pattern: trace.Poisson, Rate: 1.0 / 300})
	if err != nil {
		t.Fatal(err)
	}
	odd := []string{"", "k", `q"uote`, `back\slash`, "tab\there", "nl\n", "<b>&amp;</b>", "héllo", "bad\xffutf8", "sep\u2028\u2029", "\x00\x1f\x7f"}
	floats := []float64{0, 1, 1e-7, 1.5e-6, 123456.789, 1e20, 1e21, 3e300, 5e-324, 0.1 + 0.2}
	rng := rand.New(rand.NewSource(1))
	var buf []byte
	check := func(rec walRecord) {
		t.Helper()
		want, err := json.Marshal(&rec)
		if err != nil {
			t.Fatal(err)
		}
		if buf, err = appendWALRecord(buf[:0], &rec); err != nil {
			t.Fatal(err)
		}
		if string(buf) != string(want) {
			t.Fatalf("record bytes differ:\n got %s\nwant %s", buf, want)
		}
	}
	for i, j := range jobs {
		j.Name = odd[i%len(odd)] + j.Name + odd[(i/len(odd))%len(odd)]
		if i%3 == 0 {
			j.Model = odd[rng.Intn(len(odd))]
			j.Arrival = floats[rng.Intn(len(floats))]
			j.Throughput[gpu.Type(rng.Intn(int(gpu.NumTypes)))] = floats[rng.Intn(len(floats))]
		}
		check(walRecord{Type: recSubmit, Key: odd[rng.Intn(len(odd))], Job: j, Member: rng.Intn(3)})
		check(walRecord{Type: recCancel, ID: j.ID - rng.Intn(2)})
		check(walRecord{Type: recRound, Member: rng.Intn(3), Round: i, Now: floats[i%len(floats)] * float64(i%3-1),
			Digest: rng.Uint64() >> uint(rng.Intn(64))})
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := appendWALRecord(nil, &walRecord{Type: recRound, Now: bad}); err == nil {
			t.Errorf("round time %v encoded, want an error as encoding/json gives", bad)
		}
		j := *jobs[0]
		j.Arrival = bad
		if _, err := appendWALRecord(nil, &walRecord{Type: recSubmit, Job: &j}); err == nil {
			t.Errorf("arrival %v encoded, want an error as encoding/json gives", bad)
		}
	}
}
