package web

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/federation"
	"repro/internal/policy"
	"repro/internal/service"
	"repro/internal/sim"
)

func newLiveFixture(t *testing.T) (*service.Service, *httptest.Server) {
	t.Helper()
	svc, err := service.New(experiments.SimCluster(), policy.New(policy.SRTF, true), service.Options{
		Sim: sim.ValidatedOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	ts := httptest.NewServer(NewLiveServer(svc).Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Stop()
	})
	return svc, ts
}

func newFedFixture(t *testing.T, members int) (*service.Service, *httptest.Server) {
	t.Helper()
	configs := make([]federation.MemberConfig, members)
	for i := range configs {
		configs[i] = federation.MemberConfig{
			Name:      fmt.Sprintf("region%d", i),
			Cluster:   experiments.SimCluster(),
			Scheduler: policy.New(policy.SRTF, true),
			Sim:       sim.ValidatedOptions(),
		}
	}
	router, err := federation.NewRouter("least-queue")
	if err != nil {
		t.Fatal(err)
	}
	fed, err := federation.New(configs, router, federation.Options{Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.NewFed(fed, service.Options{})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	ts := httptest.NewServer(NewLiveServer(svc).Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Stop()
	})
	return svc, ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, out
}

func do(t *testing.T, method, url string) (*http.Response, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, out
}

func TestLiveSubmitQueryCancel(t *testing.T) {
	svc, ts := newLiveFixture(t)
	caseSubmitQueryCancel(t, ts.URL, false, phaseIn(svc))
}

func TestFedSubmitQueryCancel(t *testing.T) {
	svc, ts := newFedFixture(t, 2)
	caseSubmitQueryCancel(t, ts.URL, true, phaseIn(svc))
}

// phaseIn reads a job's phase from the service's latest snapshot, ""
// when no member knows the job.
func phaseIn(svc *service.Service) func(id int) string {
	return func(id int) string {
		_, phase, _, _, _ := svc.Snapshot().FindJob(id)
		return phase
	}
}

// caseSubmitQueryCancel walks a job through the control API of either
// service: submit (keyed or not), observe it become active, query it,
// cancel it. A federation names the owning member in every response; a
// single engine never mentions one.
func caseSubmitQueryCancel(t *testing.T, url string, federated bool, phase func(id int) string) {
	for _, body := range []string{
		`{"model": "ResNet-50", "workers": 2, "gpu_hours": 50000}`,
		`{"key": "k", "model": "ResNet-50", "workers": 2, "gpu_hours": 50000}`,
	} {
		resp, out := postJSON(t, url+"/api/jobs", body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit status = %d, body %v", resp.StatusCode, out)
		}
		id := int(out["id"].(float64))
		if id < 1<<20 {
			t.Errorf("auto-assigned ID %d not in the service range", id)
		}
		member, hasMember := out["member"].(string)
		if hasMember != federated || (federated && member == "") {
			t.Errorf("submit %s: member = %q (present %v), federated %v", body, member, hasMember, federated)
		}

		// The engine admits the job at the next boundary; wait for it.
		waitPhase(t, phase, id, "active")

		resp, out = do(t, http.MethodGet, url+"/api/jobs/"+itoa(id))
		if resp.StatusCode != http.StatusOK || out["phase"] != "active" {
			t.Fatalf("query status = %d, body %v", resp.StatusCode, out)
		}
		if got, _ := out["member"].(string); got != member {
			t.Errorf("query reports member %q, submit reported %q", got, member)
		}
		if out["job"] == nil {
			t.Error("active job query missing live detail")
		}

		resp, out = do(t, http.MethodDelete, url+"/api/jobs/"+itoa(id))
		if resp.StatusCode != http.StatusOK || out["cancelled"] != true {
			t.Fatalf("cancel status = %d, body %v", resp.StatusCode, out)
		}
		// Double cancel is a client error.
		resp, _ = do(t, http.MethodDelete, url+"/api/jobs/"+itoa(id))
		if resp.StatusCode != http.StatusConflict {
			t.Errorf("double cancel status = %d, want 409", resp.StatusCode)
		}
		// Once withdrawn the job is known, terminal, and has no result.
		waitPhase(t, phase, id, "cancelled")
		resp, out = do(t, http.MethodGet, url+"/api/jobs/"+itoa(id))
		if resp.StatusCode != http.StatusOK || out["phase"] != "cancelled" || out["result"] != nil || out["job"] != nil {
			t.Errorf("cancelled job query status = %d, body %v; want phase only", resp.StatusCode, out)
		}
	}
	// A job that runs to completion answers with its result, by ID.
	resp, out := postJSON(t, url+"/api/jobs", `{"model": "ResNet-50", "workers": 1, "gpu_hours": 0.01}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, body %v", resp.StatusCode, out)
	}
	id := int(out["id"].(float64))
	waitPhase(t, phase, id, "finished")
	resp, out = do(t, http.MethodGet, url+"/api/jobs/"+itoa(id))
	result, _ := out["result"].(map[string]any)
	if resp.StatusCode != http.StatusOK || out["phase"] != "finished" || out["job"] != nil || result["ID"] != float64(id) {
		t.Errorf("finished job query status = %d, body %v; want the result of job %d", resp.StatusCode, out, id)
	}
}

func waitPhase(t *testing.T, phase func(id int) string, id int, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for phase(id) != want {
		if time.Now().After(deadline) {
			t.Fatalf("job %d never became %s", id, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitCompleted polls the published snapshot until n jobs have
// completed; only the 10 s deadline can fail the test.
func waitCompleted(t *testing.T, svc *service.Service, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for svc.Snapshot().Completed < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d jobs never completed", n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestLiveSubmitRejectsBadSpecs(t *testing.T) {
	svc, ts := newLiveFixture(t)
	for _, body := range []string{
		`{"model": "NoSuchNet", "workers": 1, "gpu_hours": 1}`,
		`{"model": "ResNet-50", "workers": 0, "gpu_hours": 1}`,
		`not json`,
		// Hostile demand: each used to wrap into a valid 1-epoch job.
		`{"model": "ResNet-50", "workers": 2, "gpu_hours": -5}`,
		`{"model": "ResNet-50", "workers": 2, "gpu_hours": 0}`,
		`{"model": "ResNet-50", "workers": 2}`,
		`{"model": "ResNet-50", "workers": 2, "gpu_hours": 1e300}`,
		`{"model": "ResNet-50", "workers": 2, "gpu_hours": 1e999}`,
	} {
		resp, out := postJSON(t, ts.URL+"/api/jobs", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %q status = %d, body %v; want 400", body, resp.StatusCode, out)
		}
	}
	if st := svc.Stats(); st.Accepted != 0 {
		t.Errorf("%d hostile submissions reached the engine", st.Accepted)
	}
	resp, _ := do(t, http.MethodGet, ts.URL+"/api/jobs/999999999")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job query status = %d, want 404", resp.StatusCode)
	}
	resp, _ = do(t, http.MethodGet, ts.URL+"/api/jobs/notanumber")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed id status = %d, want 400", resp.StatusCode)
	}
}

func TestLiveSnapshotAndSummary(t *testing.T) {
	svc, ts := newLiveFixture(t)
	resp, out := postJSON(t, ts.URL+"/api/jobs", `{"id": 7, "model": "LSTM", "workers": 1, "gpu_hours": 0.05}`)
	if resp.StatusCode != http.StatusAccepted || out["id"].(float64) != 7 {
		t.Fatalf("submit status = %d, body %v", resp.StatusCode, out)
	}
	waitCompleted(t, svc, 1)

	resp, out = do(t, http.MethodGet, ts.URL+"/api/snapshot")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot status = %d", resp.StatusCode)
	}
	if out["completed"].(float64) != 1 {
		t.Errorf("snapshot completed = %v, want 1", out["completed"])
	}
	stats, ok := out["stats"].(map[string]any)
	if !ok || stats["accepted"].(float64) != 1 {
		t.Errorf("snapshot stats = %v, want accepted=1", out["stats"])
	}

	// The Provider-backed summary endpoint serves the live report.
	res, err := http.Get(ts.URL + "/api/summary")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var summary []map[string]any
	if err := json.NewDecoder(res.Body).Decode(&summary); err != nil {
		t.Fatal(err)
	}
	if len(summary) != 1 || summary[0]["jobs"].(float64) != 1 {
		t.Errorf("live summary = %v, want one scheduler with one job", summary)
	}

	// The HTML dashboard renders from the same provider.
	res, err = http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Errorf("live index status = %d", res.StatusCode)
	}
}

// TestFedSnapshotAndDashboard checks the merged snapshot endpoint and
// the Provider-backed dashboard pages over a federation.
func TestFedSnapshotAndDashboard(t *testing.T) {
	_, ts := newFedFixture(t, 2)

	resp, out := postJSON(t, ts.URL+"/api/jobs", `{"model": "ResNet-18", "workers": 1, "gpu_hours": 10}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, body %v", resp.StatusCode, out)
	}

	resp, snap := do(t, http.MethodGet, ts.URL+"/api/snapshot")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot status = %d", resp.StatusCode)
	}
	members, ok := snap["members"].([]any)
	if !ok || len(members) != 2 {
		t.Fatalf("snapshot members = %v, want 2 entries", snap["members"])
	}
	if snap["router"] != "least-queue" {
		t.Errorf("snapshot router = %v, want least-queue", snap["router"])
	}
	if _, ok := snap["stats"]; !ok {
		t.Error("snapshot missing admission stats")
	}
	if _, ok := snap["owners"]; ok {
		t.Error("snapshot still carries an owners map; the members' phases already say who owns what")
	}
	if got := int(snap["total_gpus"].(float64)); got != 2*experiments.SimCluster().TotalGPUs() {
		t.Errorf("snapshot total_gpus = %d, want %d", got, 2*experiments.SimCluster().TotalGPUs())
	}

	// The dashboard renders one section per member.
	page, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer page.Body.Close()
	if page.StatusCode != http.StatusOK {
		t.Errorf("dashboard status = %d", page.StatusCode)
	}

	resp, _ = do(t, http.MethodGet, ts.URL+"/api/jobs/999999999")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job query status = %d, want 404", resp.StatusCode)
	}
}

func itoa(n int) string { return strconv.Itoa(n) }

// TestLiveSubmitBodyTooLarge: the submit body is read through a fixed
// 64 KiB cap, so an oversized POST is a 413, not an unbounded read.
func TestLiveSubmitBodyTooLarge(t *testing.T) {
	svc, ts := newLiveFixture(t)
	body := `{"model": "ResNet-50", "workers": 2, "gpu_hours": 4, "key": "` + strings.Repeat("k", maxSubmitBody) + `"}`
	resp, out := postJSON(t, ts.URL+"/api/jobs", body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit status = %d, body %v; want 413", resp.StatusCode, out)
	}
	if st := svc.Stats(); st.Accepted != 0 {
		t.Errorf("oversized submission reached the engine: %+v", st)
	}
}

// TestLiveEngineBodiesMatchGolden pins the single-engine API bodies
// byte for byte: testdata/live_engine_api.golden was recorded from the
// commit before the engine and federation handlers were merged, so the
// shared handlers cannot have changed what a single-engine client sees.
// Each exchange is "METHOD path body" then "status response-body".
func TestLiveEngineBodiesMatchGolden(t *testing.T) {
	svc, ts := newLiveFixture(t)
	var got strings.Builder
	exchange := func(method, path, body string) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%s %s %s\n%d %s", method, path, body, resp.StatusCode, raw)
	}
	// Every snapshot read below happens with the engine idle (all
	// submitted work finished), so the bodies are deterministic.
	exchange("POST", "/api/jobs", `{"id": 7, "model": "LSTM", "workers": 1, "gpu_hours": 0.05}`)
	waitCompleted(t, svc, 1)
	exchange("POST", "/api/jobs", `{"id": 8, "key": "k1", "model": "ResNet-18", "workers": 2, "gpu_hours": 0.1}`)
	waitCompleted(t, svc, 2)
	exchange("POST", "/api/jobs", `{"id": 9, "key": "k1", "model": "ResNet-18", "workers": 2, "gpu_hours": 0.1}`)
	exchange("POST", "/api/jobs", `{"model": "NoSuchNet", "workers": 1, "gpu_hours": 1}`)
	exchange("GET", "/api/jobs/7", "")
	exchange("GET", "/api/jobs/999", "")
	exchange("GET", "/api/snapshot", "")

	want, err := os.ReadFile("testdata/live_engine_api.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("single-engine API bodies changed:\n--- got\n%s\n--- want\n%s", got.String(), want)
	}
}

// TestLiveSubmitIdempotencyKey: posting the same key twice admits one
// job and answers the retry with the original ID.
func TestLiveSubmitIdempotencyKey(t *testing.T) {
	svc, ts := newLiveFixture(t)
	body := `{"key": "retry-me", "model": "ResNet-50", "workers": 1, "gpu_hours": 50000}`

	resp, out := postJSON(t, ts.URL+"/api/jobs", body)
	if resp.StatusCode != http.StatusAccepted || out["deduped"] != false {
		t.Fatalf("first keyed submit status = %d, body %v", resp.StatusCode, out)
	}
	id := int(out["id"].(float64))

	resp, out = postJSON(t, ts.URL+"/api/jobs", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retried keyed submit status = %d, want 200; body %v", resp.StatusCode, out)
	}
	if out["deduped"] != true || int(out["id"].(float64)) != id {
		t.Errorf("retry body = %v, want deduped=true id=%d", out, id)
	}
	if got := svc.Stats(); got.Accepted != 1 || got.Deduped != 1 {
		t.Errorf("stats = %+v, want 1 accepted + 1 deduped", got)
	}
}

// TestLiveBusyMapsTo429WithRetryAfter fills the admission queue of an
// unstarted service and checks backpressure surfaces as HTTP 429 with
// a parseable Retry-After header.
func TestLiveBusyMapsTo429WithRetryAfter(t *testing.T) {
	svc, err := service.New(experiments.SimCluster(), policy.New(policy.SRTF, true), service.Options{
		Sim:            sim.ValidatedOptions(),
		QueueDepth:     1,
		RetryAfter:     3 * time.Second,
		RequestTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewLiveServer(svc).Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Stop()
	})

	// The service is never started, so the first submit occupies the
	// queue's only slot, times out its verdict wait (503), and stays
	// parked in the channel. The next submit then overflows.
	resp, out := postJSON(t, ts.URL+"/api/jobs", `{"model": "LSTM", "workers": 1, "gpu_hours": 1}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("queue-filling submit status = %d, body %v; want 503", resp.StatusCode, out)
	}
	resp, out = postJSON(t, ts.URL+"/api/jobs", `{"model": "LSTM", "workers": 1, "gpu_hours": 1}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit status = %d, body %v; want 429", resp.StatusCode, out)
	}
	ra := resp.Header.Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 {
		t.Errorf("Retry-After = %q, want an integer >= 1", ra)
	}
	if secs != 3 {
		t.Errorf("Retry-After = %d, want the service's 3s hint", secs)
	}
}

// TestLiveDeadVerdictMapsTo503: a verdict timeout (wedged engine loop)
// is a retriable server-side failure, not a client error.
func TestLiveDeadVerdictMapsTo503(t *testing.T) {
	svc, err := service.New(experiments.SimCluster(), policy.New(policy.SRTF, true), service.Options{
		Sim:            sim.ValidatedOptions(),
		RequestTimeout: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewLiveServer(svc).Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Stop()
	})
	// Never started: the submit parks until RequestTimeout expires.
	resp, out := postJSON(t, ts.URL+"/api/jobs", `{"model": "LSTM", "workers": 1, "gpu_hours": 1}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("dead verdict status = %d, body %v; want 503", resp.StatusCode, out)
	}
}
