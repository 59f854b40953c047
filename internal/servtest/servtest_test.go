package servtest

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"phasemark/internal/service"
	"phasemark/internal/store"
)

func TestGenerateIsDeterministic(t *testing.T) {
	mix := Mix{Cold: 0.2, Warm: 0.5, Hot: 0.3}
	a := Generate("lucas", 500, mix, 42)
	b := Generate("lucas", 500, mix, 42)
	if len(a) != 500 {
		t.Fatalf("generated %d requests, want 500", len(a))
	}
	for i := range a {
		if a[i].Endpoint != b[i].Endpoint || !bytes.Equal(a[i].Body, b[i].Body) || a[i].Kind != b[i].Kind {
			t.Fatalf("request %d differs across same-seed generations", i)
		}
	}
	if c := Generate("lucas", 500, mix, 43); func() bool {
		for i := range a {
			if !bytes.Equal(a[i].Body, c[i].Body) {
				return false
			}
		}
		return true
	}() {
		t.Error("distinct seeds generated identical traffic")
	}
}

func TestGenerateMixAndValidity(t *testing.T) {
	mix := Mix{Cold: 1, Warm: 1, Hot: 1}
	reqs := Generate("lucas", 900, mix, 7)
	kinds := map[string]int{}
	coldBodies := map[string]bool{}
	for _, r := range reqs {
		kinds[r.Kind]++
		if r.Kind == "cold" {
			if coldBodies[string(r.Body)] {
				t.Fatalf("cold request repeated: %s", r.Body)
			}
			coldBodies[string(r.Body)] = true
		}
	}
	// Equal weights: each class should land near 300 of 900. A loose band
	// keeps the test deterministic-friendly while catching a broken mix.
	for _, k := range []string{"cold", "warm", "hot"} {
		if kinds[k] < 200 || kinds[k] > 400 {
			t.Errorf("kind %s: %d of 900, want ~300", k, kinds[k])
		}
	}

	// Every generated request must canonicalize: the generator may never
	// emit traffic the service rejects.
	for i, r := range reqs {
		var err error
		switch r.Endpoint {
		case service.EndpointProfile:
			_, err = service.DecodeProfileRequest(bytes.NewReader(r.Body))
		case service.EndpointSelect:
			_, err = service.DecodeSelectRequest(bytes.NewReader(r.Body))
		case service.EndpointSegment:
			_, err = service.DecodeSegmentRequest(bytes.NewReader(r.Body))
		case service.EndpointCluster:
			_, err = service.DecodeClusterRequest(bytes.NewReader(r.Body))
		default:
			t.Fatalf("request %d: unknown endpoint %s", i, r.Endpoint)
		}
		if err != nil {
			t.Fatalf("request %d (%s %s) is invalid: %v", i, r.Endpoint, r.Body, err)
		}
	}
}

func TestPercentile(t *testing.T) {
	lats := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	cases := []struct {
		p    float64
		want int64
	}{{0.50, 50}, {0.90, 90}, {0.99, 100}, {1.0, 100}}
	for _, tc := range cases {
		if got := percentile(lats, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %d, want %d", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(empty) = %d, want 0", got)
	}
}

// TestScenarioRunAgainstLiveServer drives a small hot-heavy scenario at a
// real server and checks the aggregation: all 200s, caches accounted,
// Check clean.
func TestScenarioRunAgainstLiveServer(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := service.New(service.Config{Store: st, Workers: 4, Queue: 256})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	sc := Scenario{
		Name:        "smoke",
		Workload:    "lucas",
		Requests:    60,
		Concurrency: 4,
		Mix:         Mix{Hot: 1},
		Seed:        1,
	}
	res := sc.Run(ts.URL, nil)
	if res.Requests != 60 || res.Status.OK != 60 {
		t.Fatalf("status = %+v over %d requests, want all OK", res.Status, res.Requests)
	}
	if got := res.Cache.Hit + res.Cache.Computed + res.Cache.Joined; got != 60 {
		t.Errorf("cache outcomes account for %d of 60 successes", got)
	}
	// Hot-only traffic over 4 distinct requests: at most 4 computes, the
	// rest hits/joins.
	if res.Cache.Computed > 4 {
		t.Errorf("hot scenario computed %d times, want <= 4", res.Cache.Computed)
	}
	if res.Latency.MaxNS <= 0 || res.Latency.P50NS > res.Latency.MaxNS {
		t.Errorf("latency summary inconsistent: %+v", res.Latency)
	}
	// The telemetry audit covered every success with zero violations, and
	// the stage/outcome splits are populated from Server-Timing.
	if res.Telemetry.Checked != 60 || res.Telemetry.MissingTiming != 0 ||
		res.Telemetry.StageOverWall != 0 || res.Telemetry.HitWithCompute != 0 {
		t.Errorf("telemetry audit = %+v, want 60 clean checks", res.Telemetry)
	}
	if st, ok := res.Stages["store.get"]; !ok || st.Count == 0 || st.P50NS > st.MaxNS {
		t.Errorf("stage split missing/inconsistent: %+v", res.Stages)
	}
	if _, ok := res.Stages["req.queue"]; !ok {
		t.Errorf("stage split lacks queue wait: %v", res.Stages)
	}
	if hit, ok := res.Outcome["hit"]; !ok || hit.P50NS <= 0 {
		t.Errorf("outcome latency split missing hits: %+v", res.Outcome)
	}
	if bad := res.Check(); len(bad) != 0 {
		t.Errorf("Check() = %v, want clean", bad)
	}
}

func TestParseServerTiming(t *testing.T) {
	got := parseServerTiming("req.queue;dur=0.250, store.get;dur=1.500, weird;foo=1")
	if got["req.queue"] != 250_000 || got["store.get"] != 1_500_000 {
		t.Errorf("parseServerTiming = %v", got)
	}
	if _, ok := got["weird"]; ok {
		t.Error("entry without dur must be dropped")
	}
	if parseServerTiming("") != nil {
		t.Error("empty header must parse to nil")
	}
}

func TestCheckFlagsTelemetryViolations(t *testing.T) {
	r := ScenarioResult{Name: "s", Telemetry: TelemetryCheck{
		Checked: 10, MissingTiming: 1, StageOverWall: 2, HitWithCompute: 3,
	}}
	if bad := r.Check(); len(bad) != 3 {
		t.Errorf("Check() = %v, want 3 telemetry violations", bad)
	}
}

func TestCheckFlagsViolations(t *testing.T) {
	r := ScenarioResult{Name: "s", Status: StatusCounts{ServerErr: 1, Shed: 2}}
	bad := r.Check()
	if len(bad) != 2 {
		t.Fatalf("Check() = %v, want 2 violations", bad)
	}
	for _, b := range bad {
		if !strings.HasPrefix(b, "s: ") {
			t.Errorf("violation %q lacks scenario prefix", b)
		}
	}
	// Induced saturation inverts the shed expectation.
	r.ExpectShed = true
	if bad := (ScenarioResult{Name: "s", ExpectShed: true, Status: StatusCounts{Shed: 5}}).Check(); len(bad) != 0 {
		t.Errorf("expected shed flagged: %v", bad)
	}
	if bad := (ScenarioResult{Name: "s", ExpectShed: true}).Check(); len(bad) != 1 {
		t.Errorf("absent shed under saturation not flagged: %v", bad)
	}
}

func TestReportRoundTripAndMerge(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_service.json")
	r, err := LoadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.Schema != Schema || len(r.Runs) != 0 {
		t.Fatalf("fresh report: %+v", r)
	}
	r.SetRun(Run{Label: "dev", Build: "old", Workers: 2, Scenarios: []ScenarioResult{{Name: "cold", Requests: 10}, {Name: "hot", Requests: 20}}})
	// Partial re-run: replaces "cold", keeps "hot", appends "mixed", and
	// stamps the run with the binary that measured it.
	r.SetRun(Run{Label: "dev", Build: "new", Workers: 4, Scenarios: []ScenarioResult{{Name: "cold", Requests: 99}, {Name: "mixed", Requests: 5}}})
	r.SetRun(Run{Label: "other", Scenarios: []ScenarioResult{{Name: "cold", Requests: 1}}})
	if len(r.Runs) != 2 || len(r.Runs[0].Scenarios) != 3 {
		t.Fatalf("merge shape: %+v", r.Runs)
	}
	if r.Runs[0].Scenarios[0].Requests != 99 || r.Runs[0].Scenarios[1].Requests != 20 {
		t.Fatalf("merge content: %+v", r.Runs[0].Scenarios)
	}
	if r.Runs[0].Build != "new" || r.Runs[0].Workers != 4 {
		t.Fatalf("re-run header: build %q workers %d, want the latest run's \"new\" and 4", r.Runs[0].Build, r.Runs[0].Workers)
	}

	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := LoadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Runs) != 2 || back.Runs[0].Scenarios[0].Requests != 99 {
		t.Fatalf("round trip: %+v", back.Runs)
	}

	// A foreign schema must refuse to load.
	if err := os.WriteFile(path, []byte(`{"schema":"phasemark/bench-service/v999"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadReport(path); err == nil {
		t.Error("foreign schema loaded silently")
	}

	// The pre-telemetry v1 layout is superseded: it loads as a fresh v2
	// report instead of erroring or merging.
	if err := os.WriteFile(path, []byte(`{"schema":"phasemark/bench-service/v1","runs":[{"label":"old"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	v2, err := LoadReport(path)
	if err != nil {
		t.Fatalf("v1 report did not migrate: %v", err)
	}
	if v2.Schema != Schema || len(v2.Runs) != 0 {
		t.Errorf("v1 migration = %+v, want empty v2 report", v2)
	}
}

func TestScenarioRunCountsTransportFailures(t *testing.T) {
	// A server that immediately drops connections.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hj, _ := w.(http.Hijacker)
		conn, _, err := hj.Hijack()
		if err == nil {
			conn.Close()
		}
	}))
	defer ts.Close()
	res := Scenario{Name: "broken", Workload: "lucas", Requests: 8, Concurrency: 2, Mix: Mix{Hot: 1}, Seed: 1}.Run(ts.URL, nil)
	if res.Status.Transport != 8 {
		t.Errorf("transport failures = %d, want 8 (%+v)", res.Status.Transport, res.Status)
	}
	if len(res.Check()) == 0 {
		t.Error("Check() clean despite transport failures")
	}
}
