package service

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"phasemark/internal/obs"
)

func TestRouteName(t *testing.T) {
	cases := map[string]string{
		"/v1/cluster":    "v1.cluster",
		"/healthz":       "healthz",
		"/debug/":        "debug",
		"/debug/slowest": "debug.slowest",
		"/":              "root",
	}
	for in, want := range cases {
		if got := routeName(in); got != want {
			t.Errorf("routeName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestParseTraceparent(t *testing.T) {
	valid := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	if id, ok := parseTraceparent(valid); !ok || id != "0af7651916cd43dd8448eb211c80319c" {
		t.Errorf("valid header rejected: %q, %v", id, ok)
	}
	invalid := []string{
		"",
		"00-short-b7ad6b7169203331-01",
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331",      // missing flags
		"ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",   // forbidden version
		"00-00000000000000000000000000000000-b7ad6b7169203331-01",   // zero trace-id is the all-zero header
		"00-0AF7651916CD43DD8448EB211C80319C-b7ad6b7169203331-01",   // uppercase hex
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b716920333g-01",   // non-hex
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-x", // trailing segment
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-zz",   // non-hex flags
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-0G",   // uppercase non-hex flags
	}
	for _, h := range invalid {
		if _, ok := parseTraceparent(h); ok {
			t.Errorf("parseTraceparent(%q) accepted, want reject", h)
		}
	}
}

func TestServerTimingRendering(t *testing.T) {
	durs := map[string]int64{
		"store.get": 1_500_000, // 1.5ms
		"req.queue": 250_000,   // 0.25ms
	}
	got := serverTiming(durs)
	want := "req.queue;dur=0.250, store.get;dur=1.500"
	if got != want {
		t.Errorf("serverTiming = %q, want %q", got, want)
	}
}

func TestStageDurationsFlattening(t *testing.T) {
	snap := obs.SpanSnap{
		Name: "http.x",
		Children: []obs.SpanSnap{
			{Name: "store.get", DurNS: 10, Children: []obs.SpanSnap{
				{Name: "pipeline.prog", DurNS: 4},
			}},
			{Name: "store.get", DurNS: 7},
		},
	}
	durs := map[string]int64{}
	stageDurations(snap.Children, durs)
	if durs["store.get"] != 17 || durs["pipeline.prog"] != 4 {
		t.Errorf("stageDurations = %v", durs)
	}
}

func TestStatusClass(t *testing.T) {
	cases := map[int]string{100: "1xx", 200: "2xx", 204: "2xx", 301: "3xx",
		400: "4xx", 429: "4xx", 500: "5xx", 503: "5xx", 42: "other", 700: "other"}
	for code, want := range cases {
		if got := statusClass(code); got != want {
			t.Errorf("statusClass(%d) = %q, want %q", code, got, want)
		}
	}
}

func TestRouteTelemetryObserve(t *testing.T) {
	rt := newRouteTelemetry("unit.test")
	rt.observe("hit", 200, time.Millisecond)
	rt.observe("error", 429, time.Millisecond)
	rt.observe("bogus-outcome", 200, time.Millisecond) // folds into "none"
	if n := obs.NewHist("http.unit.test.hit").Count(); n != 1 {
		t.Errorf("hit histogram count = %d, want 1", n)
	}
	if n := obs.NewHist("http.unit.test.none").Count(); n != 1 {
		t.Errorf("none histogram count = %d, want 1", n)
	}
	if n := obs.NewCounter("http.unit.test.status.4xx").Load(); n != 1 {
		t.Errorf("4xx counter = %d, want 1", n)
	}
	if n := obs.NewCounter("http.unit.test.status.2xx").Load(); n != 2 {
		t.Errorf("2xx counter = %d, want 2", n)
	}
}

// A panicking handler must still bring its route's in-flight gauge back
// to zero; net/http recovers the panic and keeps serving.
func TestInstrumentPanicReleasesInflight(t *testing.T) {
	const path = "/test/instrument-panic"
	h := (&Server{}).instrument(path, false, func(http.ResponseWriter, *http.Request) { panic("boom") })
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want the handler's panic", r)
			}
		}()
		h(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, path, nil))
	}()
	if v := obs.NewGauge("http." + routeName(path) + ".inflight").Load(); v != 0 {
		t.Fatalf("inflight gauge = %d after a panicking request, want 0", v)
	}
}
