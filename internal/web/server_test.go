package web

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/federation"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// fakeProvider is a fixed snapshot standing in for a service.
type fakeProvider struct{ snap *federation.FedSnapshot }

func (p fakeProvider) Snapshot() *federation.FedSnapshot { return p.snap }

// testServer serves two finished reports, hadar and gavel.
func testServer() *httptest.Server {
	mk := func(name string, jct float64) *metrics.Report {
		return &metrics.Report{
			Scheduler: name,
			Jobs: []metrics.JobResult{
				{ID: 0, Model: "LSTM", Workers: 2, Arrival: 0, Start: 360,
					Finish: jct, IsolatedDuration: jct / 2, TotalIters: 100},
				{ID: 1, Model: "ResNet-50", Workers: 1, Arrival: 100, Start: 720,
					Finish: jct * 1.5, IsolatedDuration: jct, TotalIters: 200,
					Reallocations: 2},
			},
			Makespan:       jct * 1.5,
			BusyGPUSeconds: 900,
			HeldGPUSeconds: 1000,
			TotalGPUs:      6,
			RoundHeld:      []int{6, 4, 2},
			RoundStarts:    []float64{0, 360, 720},
		}
	}
	return httptest.NewServer(newServer(fakeProvider{&federation.FedSnapshot{
		Members: []federation.MemberSnapshot{
			{Name: "hadar", Snap: &sim.Snapshot{Report: mk("hadar", 4000)}},
			{Name: "gavel", Snap: &sim.Snapshot{Report: mk("gavel", 6000)}},
		},
	}}).Handler())
}

func get(t *testing.T, srv *httptest.Server, path string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
}

func TestIndexPage(t *testing.T) {
	srv := testServer()
	defer srv.Close()
	code, body, ctype := get(t, srv, "/")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if !strings.Contains(ctype, "text/html") {
		t.Errorf("content type = %q", ctype)
	}
	for _, frag := range []string{"hadar", "gavel", "avg JCT", "/cdf.svg", "/jobs?scheduler=hadar"} {
		if !strings.Contains(body, frag) {
			t.Errorf("index missing %q", frag)
		}
	}
}

func TestIndex404OnUnknownPath(t *testing.T) {
	srv := testServer()
	defer srv.Close()
	code, _, _ := get(t, srv, "/nope")
	if code != http.StatusNotFound {
		t.Errorf("status = %d, want 404", code)
	}
}

func TestCDFSVG(t *testing.T) {
	srv := testServer()
	defer srv.Close()
	code, body, ctype := get(t, srv, "/cdf.svg")
	if code != http.StatusOK || !strings.Contains(ctype, "svg") {
		t.Fatalf("status=%d ctype=%q", code, ctype)
	}
	if !strings.Contains(body, "<svg") || !strings.Contains(body, "polyline") {
		t.Errorf("SVG body malformed: %.120s", body)
	}
	if strings.Count(body, "polyline") < 2 {
		t.Errorf("expected one polyline per scheduler")
	}
}

func TestOccupancySVG(t *testing.T) {
	srv := testServer()
	defer srv.Close()
	code, body, _ := get(t, srv, "/occupancy.svg?scheduler=gavel")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if !strings.Contains(body, "gavel") {
		t.Error("occupancy SVG missing scheduler name")
	}
	code, _, _ = get(t, srv, "/occupancy.svg?scheduler=unknown")
	if code != http.StatusNotFound {
		t.Errorf("unknown scheduler status = %d, want 404", code)
	}
}

func TestUtilizationSVG(t *testing.T) {
	srv := testServer()
	defer srv.Close()
	code, body, _ := get(t, srv, "/utilization.svg")
	if code != http.StatusOK || !strings.Contains(body, "rect") {
		t.Errorf("utilization SVG malformed (status %d)", code)
	}
}

func TestJobsPage(t *testing.T) {
	srv := testServer()
	defer srv.Close()
	code, body, _ := get(t, srv, "/jobs?scheduler=hadar")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	for _, frag := range []string{"LSTM", "ResNet-50", "2 jobs"} {
		if !strings.Contains(body, frag) {
			t.Errorf("jobs page missing %q", frag)
		}
	}
	// Default scheduler when none specified.
	code, body, _ = get(t, srv, "/jobs")
	if code != http.StatusOK || !strings.Contains(body, "hadar") {
		t.Error("default scheduler not served")
	}
}

func TestSummaryJSON(t *testing.T) {
	srv := testServer()
	defer srv.Close()
	code, body, ctype := get(t, srv, "/api/summary")
	if code != http.StatusOK || !strings.Contains(ctype, "json") {
		t.Fatalf("status=%d ctype=%q", code, ctype)
	}
	var entries []map[string]interface{}
	if err := json.Unmarshal([]byte(body), &entries); err != nil {
		t.Fatalf("summary not JSON: %v", err)
	}
	if len(entries) != 2 {
		t.Fatalf("entries = %d", len(entries))
	}
	if entries[0]["scheduler"] != "hadar" {
		t.Errorf("first entry = %v", entries[0]["scheduler"])
	}
	if entries[0]["jobs"].(float64) != 2 {
		t.Errorf("job count = %v", entries[0]["jobs"])
	}
}

func TestSVGHelpersDegenerate(t *testing.T) {
	out := lineSVG("t", "x", "y", 400, 200, nil)
	if !strings.Contains(out, "no data") {
		t.Error("empty line SVG missing placeholder")
	}
	out = barSVG("t", "%", 400, nil, nil)
	if !strings.Contains(out, "no data") {
		t.Error("empty bar SVG missing placeholder")
	}
	// Constant series must not divide by zero.
	out = lineSVG("t", "x", "y", 400, 200, []svgSeries{
		{Name: "flat", X: []float64{1, 2}, Y: []float64{5, 5}},
	})
	if !strings.Contains(out, "polyline") {
		t.Error("constant series dropped")
	}
}

func TestSVGEscapesTitles(t *testing.T) {
	out := lineSVG(`<script>"x"</script>`, "x", "y", 300, 150, []svgSeries{
		{Name: "a<b", X: []float64{0, 1}, Y: []float64{0, 1}},
	})
	if strings.Contains(out, "<script>") {
		t.Error("title not escaped")
	}
	if !strings.Contains(out, "a&lt;b") {
		t.Error("series name not escaped")
	}
}
