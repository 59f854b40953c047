package service_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"phasemark/internal/service"
)

var hexRe = regexp.MustCompile(`^[0-9a-f]+$`)

// postRaw posts a body and returns the full response (caller closes).
func postRaw(t *testing.T, url string, body []byte, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestTraceparentRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, service.Config{})
	body := []byte(`{"workload":"` + itWorkload + `"}`)

	// A valid incoming traceparent: the response joins the trace (same
	// trace-id) under a fresh span-id.
	in := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	resp := postRaw(t, ts.URL+service.EndpointProfile, body, map[string]string{"Traceparent": in})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	out := resp.Header.Get("Traceparent")
	parts := strings.Split(out, "-")
	if len(parts) != 4 || parts[1] != "0af7651916cd43dd8448eb211c80319c" {
		t.Fatalf("response traceparent %q does not continue the incoming trace", out)
	}
	if parts[2] == "b7ad6b7169203331" || len(parts[2]) != 16 || !hexRe.MatchString(parts[2]) {
		t.Errorf("response span-id %q must be fresh 16-digit hex", parts[2])
	}
	if id := resp.Header.Get("X-Request-Id"); len(id) != 16 || !hexRe.MatchString(id) {
		t.Errorf("X-Request-Id = %q, want 16 hex digits", id)
	}

	// A garbage traceparent: the service starts its own trace.
	resp = postRaw(t, ts.URL+service.EndpointProfile, body, map[string]string{"Traceparent": "not-a-trace"})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	parts = strings.Split(resp.Header.Get("Traceparent"), "-")
	if len(parts) != 4 || len(parts[1]) != 32 || !hexRe.MatchString(parts[1]) {
		t.Errorf("fresh traceparent malformed: %q", resp.Header.Get("Traceparent"))
	}
}

// TestRequestIDOnErrors pins the contract the CI smoke relies on: every
// response carries X-Request-Id, including validation errors (400),
// saturation sheds (429), and draining rejections (503).
func TestRequestIDOnErrors(t *testing.T) {
	srv, ts := newTestServer(t, service.Config{Workers: 1, Queue: 0})

	resp := postRaw(t, ts.URL+service.EndpointProfile, []byte(`{"workload":"nope"}`), nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || resp.Header.Get("X-Request-Id") == "" {
		t.Errorf("400 response: status %d, request id %q", resp.StatusCode, resp.Header.Get("X-Request-Id"))
	}

	// Saturate the 1-worker/0-queue gate with concurrent cold computes
	// until one response sheds with 429.
	body := []byte(`{"segment":{"workload":"` + itWorkload + `","fixed_len":100000}}`)
	var (
		mu    sync.Mutex
		id429 = "unset"
		saw   bool
	)
	deadline := time.Now().Add(30 * time.Second)
	for !saw && time.Now().Before(deadline) {
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp := postRaw(t, ts.URL+service.EndpointCluster, body, nil)
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusTooManyRequests {
					mu.Lock()
					saw, id429 = true, resp.Header.Get("X-Request-Id")
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
	}
	if !saw {
		t.Fatal("never induced a 429 with 8 concurrent clients on a 1/0 gate")
	}
	if len(id429) != 16 || !hexRe.MatchString(id429) {
		t.Errorf("429 X-Request-Id = %q, want 16 hex digits", id429)
	}

	srv.StartDrain()
	resp = postRaw(t, ts.URL+service.EndpointProfile, []byte(`{"workload":"`+itWorkload+`"}`), nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("X-Request-Id") == "" {
		t.Errorf("503 response: status %d, request id %q", resp.StatusCode, resp.Header.Get("X-Request-Id"))
	}
}

// TestServerTimingStageBreakdown drives one cold and one hot request and
// checks the Server-Timing header tells them apart: the cold path shows a
// compute phase, the hot path a get and no compute — the invariant the
// stress suite's telemetry-consistency check enforces fleet-wide.
func TestServerTimingStageBreakdown(t *testing.T) {
	_, ts := newTestServer(t, service.Config{})
	body := []byte(`{"workload":"` + itWorkload + `"}`)

	resp := postRaw(t, ts.URL+service.EndpointSelect, body, nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	cold := resp.Header.Get("Server-Timing")
	if !strings.Contains(cold, "store.compute;dur=") || !strings.Contains(cold, "req.queue;dur=") {
		t.Errorf("cold Server-Timing %q lacks compute/queue stages", cold)
	}
	if !strings.Contains(cold, "pipeline.markers;dur=") {
		t.Errorf("cold Server-Timing %q lacks nested pipeline stages", cold)
	}

	resp = postRaw(t, ts.URL+service.EndpointSelect, body, nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	hot := resp.Header.Get("Server-Timing")
	if resp.Header.Get("X-Phased-Cache") != "hit" {
		t.Fatalf("second request not a hit")
	}
	if strings.Contains(hot, "store.compute") {
		t.Errorf("hit Server-Timing %q shows a compute span", hot)
	}
	if !strings.Contains(hot, "store.get;dur=") {
		t.Errorf("hit Server-Timing %q lacks the get span", hot)
	}
}

// TestTraceQueryReturnsChromeTrace asks a pipeline endpoint for its
// one-shot per-request trace (?trace=1) and validates the Chrome
// trace_event payload: the full span tree, cache-outcome tags included.
func TestTraceQueryReturnsChromeTrace(t *testing.T) {
	_, ts := newTestServer(t, service.Config{})
	body := []byte(`{"workload":"` + itWorkload + `"}`)

	resp := postRaw(t, ts.URL+service.EndpointProfile+"?trace=1", body, nil)
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace request: %d %s", resp.StatusCode, data)
	}
	if resp.Header.Get("X-Phased-Trace") != "1" {
		t.Error("trace response missing X-Phased-Trace marker")
	}
	if resp.Header.Get("X-Phased-Cache") != "computed" {
		t.Errorf("trace response cache = %q", resp.Header.Get("X-Phased-Cache"))
	}
	var trace struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("trace body is not Chrome trace JSON: %v", err)
	}
	byName := map[string]map[string]string{}
	for _, ev := range trace.TraceEvents {
		byName[ev.Name] = ev.Args
	}
	for _, want := range []string{"http.v1.profile", "req.queue", "store.get", "store.compute", "store.write", "pipeline.prog", "pipeline.graph"} {
		if _, ok := byName[want]; !ok {
			t.Errorf("trace lacks span %q (have %v)", want, keys(byName))
		}
	}
	if byName["pipeline.graph"]["cache"] != "computed" {
		t.Errorf("pipeline.graph args = %v, want cache=computed tag", byName["pipeline.graph"])
	}
	if byName["store.compute"]["parent"] != "http.v1.profile" {
		t.Errorf("store.compute parent = %q", byName["store.compute"]["parent"])
	}
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestDebugSlowestWindow(t *testing.T) {
	_, ts := newTestServer(t, service.Config{})
	body := []byte(`{"workload":"` + itWorkload + `"}`)
	for i := 0; i < 3; i++ {
		resp := postRaw(t, ts.URL+service.EndpointProfile, body, nil)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/debug/slowest")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Schema   string                `json:"schema"`
		Window   int                   `json:"window"`
		Requests []service.SlowRequest `json:"requests"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Schema != service.SchemaDebugSlowest || out.Window != 64 {
		t.Fatalf("debug payload shape: %q window %d", out.Schema, out.Window)
	}
	if len(out.Requests) != 3 {
		t.Fatalf("captured %d requests, want 3", len(out.Requests))
	}
	for i := 1; i < len(out.Requests); i++ {
		if out.Requests[i].DurNS > out.Requests[i-1].DurNS {
			t.Error("requests not sorted slowest-first")
		}
	}
	slowest := out.Requests[0]
	if slowest.Route != "v1.profile" || slowest.Cache != "computed" {
		t.Errorf("slowest = route %q cache %q, want the cold compute", slowest.Route, slowest.Cache)
	}
	if len(slowest.Span.Children) == 0 {
		t.Error("slowest request carries no span tree")
	}
	if slowest.ID == "" || slowest.TraceID == "" {
		t.Error("slowest request lacks identifiers")
	}

	// The debug index lists the endpoint.
	resp, err = http.Get(ts.URL + "/debug/")
	if err != nil {
		t.Fatal(err)
	}
	idx, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(idx), "/debug/slowest") {
		t.Errorf("debug index %s does not list /debug/slowest", idx)
	}
}

// TestMetricsContentNegotiation pins both representations of /metrics:
// JSON (default, correct Content-Type) and Prometheus text exposition
// (via ?format= and via Accept), with the RED route metrics present.
func TestMetricsContentNegotiation(t *testing.T) {
	_, ts := newTestServer(t, service.Config{})
	body := []byte(`{"workload":"` + itWorkload + `"}`)
	resp := postRaw(t, ts.URL+service.EndpointSelect, body, nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	jsonBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("JSON /metrics Content-Type = %q", ct)
	}
	if !json.Valid(jsonBody) {
		t.Error("default /metrics is not valid JSON")
	}

	resp, err = http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	promBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Prometheus /metrics Content-Type = %q", ct)
	}
	text := string(promBody)
	if !strings.Contains(text, "# TYPE store_compute_total counter") {
		t.Error("Prometheus exposition lacks store counters")
	}
	if !strings.Contains(text, "# TYPE http_v1_select_computed histogram") ||
		!strings.Contains(text, "http_v1_select_computed_count") {
		t.Error("Prometheus exposition lacks the per-route RED histograms")
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("Accept: text/plain negotiated %q", ct)
	}
}

func TestHealthzCarriesBuildInfo(t *testing.T) {
	_, ts := newTestServer(t, service.Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Status string            `json:"status"`
		Build  service.BuildInfo `json:"build"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Status != "ok" {
		t.Fatalf("status = %q", out.Status)
	}
	if out.Build.Version == "" || out.Build.Go == "" {
		t.Errorf("healthz build info incomplete: %+v", out.Build)
	}
	if s := out.Build.String(); !strings.Contains(s, "phased") || !strings.Contains(s, out.Build.Go) {
		t.Errorf("BuildInfo.String() = %q", s)
	}
}
