package metrics

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func debugGet(t *testing.T, srv *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp.StatusCode, body
}

func TestDebugHandlerMetrics(t *testing.T) {
	c := New()
	c.AddTotalConfigs(4)
	for i := 1; i <= 50; i++ {
		c.AddRun(10+i, 500, float64(100+i))
	}
	c.ConfigDone(1500 * time.Millisecond)

	srv := httptest.NewServer(DebugHandler(c))
	defer srv.Close()

	code, body := debugGet(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	var s Snapshot
	if err := json.Unmarshal(body, &s); err != nil {
		t.Fatalf("/metrics not JSON: %v\n%s", err, body)
	}
	if s.Simulations != 50 || s.ConfigsDone != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
	// The histogram percentiles must be live mid-sweep, not just at the end.
	if s.RunMakespan.P50 <= 0 || s.RunMakespan.P99 <= 0 {
		t.Fatalf("makespan percentiles zero: %+v", s.RunMakespan)
	}
	if s.ChunksPerRun.P90 <= 0 {
		t.Fatalf("chunks percentiles zero: %+v", s.ChunksPerRun)
	}
	if s.ConfigWallSec.P50 != 1.5 {
		t.Fatalf("config wall p50 = %v", s.ConfigWallSec.P50)
	}
}

func TestDebugHandlerMetricsPlans(t *testing.T) {
	c := New()
	c.AddPlans(2, 7)
	srv := httptest.NewServer(DebugHandler(c))
	defer srv.Close()
	_, body := debugGet(t, srv, "/metrics")
	var s map[string]any
	if err := json.Unmarshal(body, &s); err != nil {
		t.Fatalf("/metrics not JSON: %v\n%s", err, body)
	}
	if s["plans_built"] != 2.0 || s["plans_shared"] != 7.0 {
		t.Fatalf("/metrics plans_built = %v, plans_shared = %v; want 2 and 7", s["plans_built"], s["plans_shared"])
	}
}

func TestDebugHandlerExpvarAndPprof(t *testing.T) {
	c := New()
	c.AddRun(3, 30, 7)
	PublishExpvar(c)
	PublishExpvar(c) // second call must not panic on the duplicate name

	srv := httptest.NewServer(DebugHandler(c))
	defer srv.Close()

	code, body := debugGet(t, srv, "/debug/vars")
	if code != http.StatusOK || !strings.Contains(string(body), `"sweep"`) {
		t.Fatalf("/debug/vars status %d, body %.200s", code, body)
	}
	var vars struct {
		Sweep Snapshot `json:"sweep"`
	}
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if vars.Sweep.Simulations != 1 {
		t.Fatalf("expvar sweep = %+v", vars.Sweep)
	}

	if code, _ := debugGet(t, srv, "/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status = %d", code)
	}
	if code, _ := debugGet(t, srv, "/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline status = %d", code)
	}
}

// /metrics must be unambiguous for scrapers and the dashboard's poller:
// JSON-typed, never cached, and carrying the engine counter aggregates.
func TestMetricsEndpointHeaders(t *testing.T) {
	c := New()
	c.AddRun(5, 100, 2.5)
	c.AddEngineCounters(EngineCounters{EventsPopped: 100, MaxHeapDepth: 7})
	srv := httptest.NewServer(DebugHandler(c))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("Cache-Control = %q", cc)
	}
	var s Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	if s.Simulations != 1 || s.Engine.EventsPopped != 100 || s.Engine.MaxHeapDepth != 7 {
		t.Fatalf("snapshot over HTTP lost counters: %+v", s)
	}
}

// /dashboard is a self-contained page — HTML-typed, never cached — that
// polls the sibling JSON endpoints rather than embedding data.
func TestDashboardEndpoint(t *testing.T) {
	srv := httptest.NewServer(DebugHandler(New()))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/dashboard")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("Content-Type = %q", ct)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("Cache-Control = %q", cc)
	}
	for _, want := range []string{"<!doctype html>", `fetch("/metrics"`, `fetch("/shards"`, `href="/trace"`,
		"multi_job_runs", "job_slowdown", "Jain fairness"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("dashboard page lacks %q", want)
		}
	}
}

// Publishing a second collector (sequential sweeps, or tests standing up
// several debug servers in one process) must not panic and must re-point
// the process-global expvar at the most recent collector.
func TestPublishExpvarRepoints(t *testing.T) {
	a, b := New(), New()
	a.AddRun(1, 10, 1)
	PublishExpvar(a)
	PublishExpvar(b)
	b.AddRun(3, 30, 1)
	b.AddRun(4, 40, 2)

	srv := httptest.NewServer(DebugHandler(b))
	defer srv.Close()
	code, body := debugGet(t, srv, "/debug/vars")
	if code != http.StatusOK {
		t.Fatalf("/debug/vars status = %d", code)
	}
	var vars struct {
		Sweep Snapshot `json:"sweep"`
	}
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if vars.Sweep.Simulations != 2 {
		t.Fatalf("expvar tracks the wrong collector: %+v", vars.Sweep)
	}
}
