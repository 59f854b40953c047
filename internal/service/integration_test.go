package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"phasemark/internal/core"
	"phasemark/internal/obs"
	"phasemark/internal/service"
	"phasemark/internal/simpoint"
	"phasemark/internal/store"
	"phasemark/internal/trace"
	"phasemark/internal/uarch"
	"phasemark/internal/workloads"
)

// itWorkload is the committed integration-test workload: the cheapest of
// the sixteen to profile and trace (see §5.1 analysis-cost table).
const itWorkload = "lucas"

func newTestServer(t *testing.T, cfg service.Config) (*service.Server, *httptest.Server) {
	t.Helper()
	if cfg.Store == nil {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		cfg.Store = st
	}
	srv := service.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// postJSON posts one API request and returns status, body, and the cache
// header.
func postJSON(t *testing.T, url string, body []byte) (int, []byte, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data, resp.Header.Get("X-Phased-Cache")
}

// TestEndToEndFlowMatchesInProcessPipeline boots phased on an ephemeral
// listener, drives the full profile → select → segment → cluster flow for
// one committed workload over HTTP, and asserts every response is
// byte-identical to what the in-process spexp path — core.ProfileRun →
// core.SelectMarkers → trace.Run → simpoint.Classify, artifacts computed
// directly, no service code in the loop — produces for the same inputs.
func TestEndToEndFlowMatchesInProcessPipeline(t *testing.T) {
	_, ts := newTestServer(t, service.Config{})

	// The request chain, canonicalized exactly as the server will.
	profileReq, err := service.ProfileRequest{Workload: itWorkload}.Canon()
	if err != nil {
		t.Fatal(err)
	}
	selectReq, err := service.SelectRequest{
		Workload: itWorkload,
		Options:  service.SelectSpec{ILower: 100_000, MaxLimit: 2_000_000},
	}.Canon()
	if err != nil {
		t.Fatal(err)
	}
	segmentReq, err := service.SegmentRequest{Workload: itWorkload, Select: &selectReq}.Canon()
	if err != nil {
		t.Fatal(err)
	}
	clusterReq, err := service.ClusterRequest{Segment: segmentReq, Seed: 7}.Canon()
	if err != nil {
		t.Fatal(err)
	}

	// The in-process oracle: the spexp artifact chain, computed directly.
	w, err := workloads.ByName(itWorkload)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := w.Compile(false)
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.ProfileRun(prog, w.Train...)
	if err != nil {
		t.Fatal(err)
	}
	set := core.SelectMarkers(g, selectReq.Options.SelectOptions())
	res, err := trace.Run(trace.Config{Prog: prog, Args: w.Ref, CPU: uarch.DefaultConfig(), Markers: set})
	if err != nil {
		t.Fatal(err)
	}
	clustering := simpoint.Classify(res, service.ClusterOptions(clusterReq))

	steps := []struct {
		endpoint string
		body     []byte
		want     []byte
	}{
		{service.EndpointProfile, service.Encode(profileReq), service.Encode(service.NewProfileResponse(profileReq, g))},
		{service.EndpointSelect, service.Encode(selectReq), service.Encode(service.NewSelectResponse(selectReq, set))},
		{service.EndpointSegment, service.Encode(segmentReq), service.Encode(service.NewSegmentResponse(segmentReq, res))},
		{service.EndpointCluster, service.Encode(clusterReq), service.Encode(service.NewClusterResponse(clusterReq, res, clustering))},
	}
	for _, step := range steps {
		code, got, cache := postJSON(t, ts.URL+step.endpoint, step.body)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", step.endpoint, code, got)
		}
		if cache != "computed" {
			t.Errorf("%s: first request cache = %q, want computed", step.endpoint, cache)
		}
		if !bytes.Equal(got, step.want) {
			t.Errorf("%s: response differs from the in-process pipeline\n got: %.300s\nwant: %.300s",
				step.endpoint, got, step.want)
		}
	}

	// Sanity on the clustered payload itself: every interval assigned,
	// weights normalized.
	var cr service.ClusterResponse
	_, body, cache := postJSON(t, ts.URL+service.EndpointCluster, service.Encode(clusterReq))
	if cache != "hit" {
		t.Errorf("second cluster request cache = %q, want hit", cache)
	}
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.K < 1 || len(cr.Assign) != cr.Intervals || len(cr.Weights) != cr.K {
		t.Errorf("cluster response shape: k=%d assign=%d/%d weights=%d", cr.K, len(cr.Assign), cr.Intervals, len(cr.Weights))
	}
	var wsum float64
	for _, wt := range cr.Weights {
		wsum += wt
	}
	if wsum < 0.999 || wsum > 1.001 {
		t.Errorf("cluster weights sum to %v, want 1", wsum)
	}
}

// TestOneTraceRunPerSegment pins that the interpreter runs once per
// segment: on a fresh server, a segment request plus cluster requests for
// three new seeds over the same segment cost exactly one trace.Run.
func TestOneTraceRunPerSegment(t *testing.T) {
	_, ts := newTestServer(t, service.Config{})
	segment := `{"workload":"` + itWorkload + `","fixed_len":100000}`
	reqs := []struct{ endpoint, body string }{{service.EndpointSegment, segment}}
	for seed := 1; seed <= 3; seed++ {
		reqs = append(reqs, struct{ endpoint, body string }{
			service.EndpointCluster, fmt.Sprintf(`{"segment":%s,"seed":%d}`, segment, seed),
		})
	}

	runs := obs.NewCounter("trace.runs")
	before := runs.Load()
	for _, r := range reqs {
		code, body, cache := postJSON(t, ts.URL+r.endpoint, []byte(r.body))
		if code != http.StatusOK || cache != "computed" {
			t.Fatalf("%s %s: status %d cache %q: %s", r.endpoint, r.body, code, cache, body)
		}
	}
	if got := runs.Load() - before; got != 1 {
		t.Errorf("one segment and three cluster seeds cost %d trace runs, want 1", got)
	}
}

// TestSecondIdenticalRequestIsStoreHit pins the content-addressed dedupe
// acceptance criterion, including across a process restart (a second
// Server over the same directory).
func TestSecondIdenticalRequestIsStoreHit(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, service.Config{Store: st})
	body := []byte(`{"workload":"` + itWorkload + `"}`)

	code, first, cache := postJSON(t, ts.URL+service.EndpointProfile, body)
	if code != http.StatusOK || cache != "computed" {
		t.Fatalf("first request: status %d cache %q", code, cache)
	}
	code, second, cache := postJSON(t, ts.URL+service.EndpointProfile, body)
	if code != http.StatusOK || cache != "hit" {
		t.Fatalf("second request: status %d cache %q, want 200/hit", code, cache)
	}
	if !bytes.Equal(first, second) {
		t.Error("hit served different bytes than the original compute")
	}
	if st := srv.Store().Stats(); st.Computes != 1 || st.DiskHits != 1 {
		t.Errorf("store stats = %+v, want 1 compute + 1 disk hit", st)
	}

	// "Restart": a fresh server (cold memos) over the same store directory
	// serves the artifact without recomputing.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts2 := newTestServer(t, service.Config{Store: st2})
	code, third, cache := postJSON(t, ts2.URL+service.EndpointProfile, body)
	if code != http.StatusOK || cache != "hit" {
		t.Fatalf("restarted request: status %d cache %q, want 200/hit", code, cache)
	}
	if !bytes.Equal(first, third) {
		t.Error("restarted server served different bytes")
	}
	if st := st2.Stats(); st.Computes != 0 || st.DiskHits != 1 {
		t.Errorf("restarted store stats = %+v, want 0 computes + 1 disk hit", st)
	}
}

func TestRequestValidationErrors(t *testing.T) {
	_, ts := newTestServer(t, service.Config{})
	cases := []struct {
		name     string
		endpoint string
		body     string
	}{
		{"unknown workload", service.EndpointProfile, `{"workload":"nope"}`},
		{"bad input", service.EndpointProfile, `{"workload":"lucas","input":"test"}`},
		{"unknown field", service.EndpointProfile, `{"workload":"lucas","bogus":1}`},
		{"malformed json", service.EndpointSelect, `{"workload":`},
		{"trailing data", service.EndpointProfile, `{"workload":"lucas"} {"again":true}`},
		{"segment needs a cut", service.EndpointSegment, `{"workload":"lucas"}`},
		{"segment with both cuts", service.EndpointSegment, `{"workload":"lucas","fixed_len":10000,"select":{"workload":"lucas"}}`},
		{"segment cross-workload select", service.EndpointSegment, `{"workload":"lucas","select":{"workload":"mcf"}}`},
		{"inverted limits", service.EndpointSelect, `{"workload":"lucas","options":{"ilower":500000,"max_limit":100000}}`},
		{"negative kmax", service.EndpointCluster, `{"segment":{"workload":"lucas","fixed_len":10000},"kmax":-3}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body, _ := postJSON(t, ts.URL+tc.endpoint, []byte(tc.body))
			if code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (body %s)", code, body)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Fatalf("error body %q is not {error: ...}", body)
			}
		})
	}

	if resp, err := http.Get(ts.URL + service.EndpointProfile); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET on a pipeline endpoint: status %d, want 405", resp.StatusCode)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	srv, ts := newTestServer(t, service.Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	healthy, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(healthy), `"ok"`) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, healthy)
	}

	// One computed artifact, then the scrape must show non-empty counters.
	if code, body, _ := postJSON(t, ts.URL+service.EndpointSelect, []byte(`{"workload":"`+itWorkload+`"}`)); code != http.StatusOK {
		t.Fatalf("select: %d %s", code, body)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Counters []struct {
			Name  string `json:"name"`
			Value uint64 `json:"value"`
		} `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	byName := map[string]uint64{}
	for _, c := range snap.Counters {
		byName[c.Name] = c.Value
	}
	// The obs registry is process-global, so assert >= rather than == —
	// other tests in the package contribute.
	for _, name := range []string{"store.compute", "service.admitted", "service.req.select", "core.select.runs"} {
		if byName[name] == 0 {
			t.Errorf("metrics counter %s is 0 or missing (got %v)", name, byName)
		}
	}

	// Draining flips healthz to 503.
	srv.StartDrain()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz: %d, want 503", resp.StatusCode)
	}
	if code, _, _ := postJSON(t, ts.URL+service.EndpointProfile, []byte(`{"workload":"lucas"}`)); code != http.StatusServiceUnavailable {
		t.Errorf("draining endpoint: %d, want 503", code)
	}
}

// TestSaturationReturns429 induces saturation — capacity 1+0, eight
// concurrent cold cluster requests — and checks the overload contract:
// some requests succeed, the shed ones get 429 + Retry-After, and nothing
// surfaces as a 5xx.
func TestSaturationReturns429(t *testing.T) {
	_, ts := newTestServer(t, service.Config{Workers: 1, Queue: 0})
	body := []byte(`{"segment":{"workload":"` + itWorkload + `","fixed_len":100000}}`)

	const clients = 8
	codes := make([]int, clients)
	retryAfter := make([]string, clients)
	var wg sync.WaitGroup
	for i := range codes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+service.EndpointCluster, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes[i] = resp.StatusCode
			retryAfter[i] = resp.Header.Get("Retry-After")
		}()
	}
	wg.Wait()
	ok, shed := 0, 0
	for i, code := range codes {
		switch {
		case code == http.StatusOK:
			ok++
		case code == http.StatusTooManyRequests:
			shed++
			if retryAfter[i] == "" {
				t.Error("429 without Retry-After")
			}
		case code >= 500:
			t.Errorf("saturation produced a %d", code)
		}
	}
	if ok == 0 {
		t.Error("no request succeeded under saturation")
	}
	if shed == 0 {
		t.Error("no request was shed at capacity 1/queue 0 with 8 concurrent clients")
	}
}

func TestBatchEndpoint(t *testing.T) {
	_, ts := newTestServer(t, service.Config{})
	batch := service.BatchRequest{
		Requests: []service.BatchItem{
			{Endpoint: service.EndpointProfile, Body: json.RawMessage(`{"workload":"` + itWorkload + `"}`)},
			{Endpoint: service.EndpointSelect, Body: json.RawMessage(`{"workload":"` + itWorkload + `"}`)},
			{Endpoint: service.EndpointProfile, Body: json.RawMessage(`{"workload":"` + itWorkload + `"}`)}, // duplicate of item 0
			{Endpoint: "/v1/nope", Body: json.RawMessage(`{}`)},
			{Endpoint: service.EndpointProfile, Body: json.RawMessage(`{"workload":"nope"}`)},
		},
	}
	code, body, _ := postJSON(t, ts.URL+service.EndpointBatch, service.Encode(batch))
	if code != http.StatusOK {
		t.Fatalf("batch: %d %s", code, body)
	}
	var resp service.BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Schema != service.SchemaBatch || len(resp.Results) != len(batch.Requests) {
		t.Fatalf("batch response shape: %s, %d results", resp.Schema, len(resp.Results))
	}
	if resp.Results[0].Status != 200 || resp.Results[1].Status != 200 {
		t.Errorf("valid items: statuses %d, %d, want 200s", resp.Results[0].Status, resp.Results[1].Status)
	}
	// Items 0 and 2 are identical: same key, same bytes, and between the
	// two exactly one compute happened (the other joined or hit).
	if resp.Results[0].Key != resp.Results[2].Key {
		t.Error("identical batch items got different keys")
	}
	if !bytes.Equal(resp.Results[0].Body, resp.Results[2].Body) {
		t.Error("identical batch items got different bodies")
	}
	if resp.Results[3].Status != 400 || resp.Results[4].Status != 400 {
		t.Errorf("invalid items: statuses %d, %d, want 400s", resp.Results[3].Status, resp.Results[4].Status)
	}
}

// TestMinimizeDistinguishesKeysAndShrinksSelection pins the canonical-key
// contract for the minimize knob: a minimized select (and any segment
// built on it) must address a different artifact than the full selection,
// and over HTTP the minimized response must be a strict, non-empty subset
// of the full marker set.
func TestMinimizeDistinguishesKeysAndShrinksSelection(t *testing.T) {
	full, err := service.SelectRequest{Workload: itWorkload}.Canon()
	if err != nil {
		t.Fatal(err)
	}
	min := full
	min.Options.Minimize = true
	if min, err = min.Canon(); err != nil {
		t.Fatal(err)
	}
	if full.Key() == min.Key() {
		t.Fatal("minimize knob does not change the select key: minimized runs would alias full artifacts")
	}
	segFull, err := service.SegmentRequest{Workload: itWorkload, Select: &full}.Canon()
	if err != nil {
		t.Fatal(err)
	}
	segMin, err := service.SegmentRequest{Workload: itWorkload, Select: &min}.Canon()
	if err != nil {
		t.Fatal(err)
	}
	if segFull.Key() == segMin.Key() {
		t.Fatal("minimize knob does not change the segment key")
	}

	_, ts := newTestServer(t, service.Config{})
	var got [2]service.SelectResponse
	for i, req := range []service.SelectRequest{full, min} {
		code, body, _ := postJSON(t, ts.URL+service.EndpointSelect, service.Encode(req))
		if code != http.StatusOK {
			t.Fatalf("select (minimize=%v): %d %s", req.Options.Minimize, code, body)
		}
		if err := json.Unmarshal(body, &got[i]); err != nil {
			t.Fatal(err)
		}
	}
	nf, nm := len(got[0].Markers), len(got[1].Markers)
	if nm == 0 || nm >= nf {
		t.Fatalf("minimized selection has %d markers, full has %d; want a strict, non-empty subset", nm, nf)
	}
	byBlock := map[service.MarkerInfo]bool{}
	for _, m := range got[0].Markers {
		byBlock[m] = true
	}
	for _, m := range got[1].Markers {
		if !byBlock[m] {
			t.Errorf("minimized marker %+v not present in the full selection", m)
		}
	}
}

// TestTraceWorkersByteIdenticalResponses pins the service half of the
// pipeline-parallel determinism contract: a server whose traces run on
// the parallel engine (one request at a time on 4 CPUs, so each trace's
// share is 4) must serve byte-for-byte the same segment and cluster
// responses as the default server, whose share is 1, the serial path —
// the engine changes latency, never bytes.
func TestTraceWorkersByteIdenticalResponses(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	selectReq, err := service.SelectRequest{
		Workload: itWorkload,
		Options:  service.SelectSpec{ILower: 100_000, MaxLimit: 2_000_000},
	}.Canon()
	if err != nil {
		t.Fatal(err)
	}
	segmentReq, err := service.SegmentRequest{Workload: itWorkload, Select: &selectReq}.Canon()
	if err != nil {
		t.Fatal(err)
	}
	clusterReq, err := service.ClusterRequest{Segment: segmentReq, Seed: 7}.Canon()
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		endpoint string
		body     []byte
	}{
		{service.EndpointSegment, service.Encode(segmentReq)},
		{service.EndpointCluster, service.Encode(clusterReq)},
	}

	_, serial := newTestServer(t, service.Config{})
	_, parallel := newTestServer(t, service.Config{Workers: 1})
	for _, step := range steps {
		code, want, _ := postJSON(t, serial.URL+step.endpoint, step.body)
		if code != http.StatusOK {
			t.Fatalf("%s (serial): status %d: %s", step.endpoint, code, want)
		}
		code, got, _ := postJSON(t, parallel.URL+step.endpoint, step.body)
		if code != http.StatusOK {
			t.Fatalf("%s (engine): status %d: %s", step.endpoint, code, got)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: parallel-engine response differs from serial\n got: %.300s\nwant: %.300s",
				step.endpoint, got, want)
		}
	}
}
