package web

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/policy"
	"repro/internal/service"
	"repro/internal/sim"
)

// submitAllocBudget bounds the allocations of one accepted keyed POST
// /api/jobs, the engine's work for the job and the recorder's included:
// 42 measured (Go 1.24, amd64 and 386), plus a slack of 5 for the
// append-only histories' amortized growth. A map[string]any verdict
// alone costs 13 more.
const submitAllocBudget = 47

// raceDetector is set when the tests run under the race detector.
var raceDetector bool

// TestSubmitAllocs counts what one accepted keyed POST allocates,
// request parsing to response encoding, with the service loop's rounds
// for the job: each job is small enough to finish in one round, and
// every POST waits until the engine is idle again, so a run covers the
// whole of the job's life. The requests and recorders are built before
// counting; what the recorder allocates while the handler writes is
// counted.
func TestSubmitAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates for itself")
	}
	svc, err := service.New(experiments.SimCluster(), policy.New(policy.SRTF), service.Options{
		Sim:   sim.DefaultOptions(),
		Clock: service.VirtualClock,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	defer svc.Stop()
	h := NewLiveServer(svc).Handler()

	const runs = 200
	type exchange struct {
		req *http.Request
		rec *httptest.ResponseRecorder
	}
	// Warm-up posts first, so the first counted ones do not pay for
	// the histories' first growth.
	const warm = 64
	xs := make([]exchange, warm+runs+1)
	for i := range xs {
		body := `{"key":"k` + strconv.Itoa(i) + `","model":"LSTM","workers":1,"gpu_hours":0.05}`
		xs[i] = exchange{httptest.NewRequest(http.MethodPost, "/api/jobs", strings.NewReader(body)), httptest.NewRecorder()}
	}
	next := 0
	post := func() {
		x := xs[next]
		next++
		h.ServeHTTP(x.rec, x.req)
		if x.rec.Code != http.StatusAccepted {
			t.Fatalf("post %d: status %d, body %s", next, x.rec.Code, x.rec.Body)
		}
		for s := svc.Snapshot(); s.Completed < next || s.Pending+s.Active > 0; s = svc.Snapshot() {
			runtime.Gosched()
		}
	}
	for next < warm {
		post()
	}
	got := testing.AllocsPerRun(runs, post)
	t.Logf("%.1f allocations per accepted POST (budget %d)", got, submitAllocBudget)
	if got > submitAllocBudget {
		t.Errorf("an accepted POST allocates %.1f times, budget %d", got, submitAllocBudget)
	}
}
