package service

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"phasemark/internal/obs"
)

// Cache-outcome labels for the per-route RED metrics. The first three
// mirror store.Outcome; "error" overrides them for 4xx/5xx responses and
// "none" marks routes that never touch the store (/healthz, /metrics).
var outcomeLabels = [...]string{"hit", "computed", "joined", "error", "none"}

// routeName converts a mux pattern into the dotted label used in span and
// metric names: "/v1/cluster" → "v1.cluster", "/debug/" → "debug".
func routeName(path string) string {
	p := strings.Trim(path, "/")
	if p == "" {
		return "root"
	}
	return strings.ReplaceAll(p, "/", ".")
}

// routeTelemetry is one route's RED instruments, resolved once at
// registration so the per-request path is handle increments only:
//
//	http.<route>.<outcome>      histogram  latency (ns), split by cache outcome
//	http.<route>.inflight       gauge      requests currently in the handler
//	http.<route>.status.<class> counter    responses by status class
type routeTelemetry struct {
	route    string
	inflight *obs.Gauge
	latency  map[string]*obs.Histogram
	status   map[string]*obs.Counter
}

func newRouteTelemetry(route string) *routeTelemetry {
	t := &routeTelemetry{
		route:    route,
		inflight: obs.NewGauge("http." + route + ".inflight"),
		latency:  map[string]*obs.Histogram{},
		status:   map[string]*obs.Counter{},
	}
	for _, o := range outcomeLabels {
		t.latency[o] = obs.NewHist("http." + route + "." + o)
	}
	for _, c := range []string{"1xx", "2xx", "3xx", "4xx", "5xx", "other"} {
		t.status[c] = obs.NewCounter("http." + route + ".status." + c)
	}
	return t
}

// observe folds one finished request into the route's instruments.
func (t *routeTelemetry) observe(outcome string, code int, d time.Duration) {
	h := t.latency[outcome]
	if h == nil {
		h = t.latency["none"]
	}
	h.Observe(uint64(d))
	t.status[statusClass(code)].Inc()
}

func statusClass(code int) string {
	if code < 100 || code >= 600 {
		return "other"
	}
	return [...]string{"1xx", "2xx", "3xx", "4xx", "5xx"}[code/100-1]
}

// respWriter records the status code and body size a handler produced.
type respWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *respWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *respWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// parseTraceparent extracts the trace-id from a W3C trace-context header
// (version-format "00-<32 hex trace-id>-<16 hex span-id>-<2 hex flags>").
// Only a syntactically valid header with a nonzero trace-id is honored;
// anything else makes the service start a fresh trace.
func parseTraceparent(h string) (string, bool) {
	parts := strings.Split(h, "-")
	if len(parts) != 4 || len(parts[0]) != 2 || len(parts[1]) != 32 ||
		len(parts[2]) != 16 || len(parts[3]) != 2 {
		return "", false
	}
	if parts[0] == "ff" { // forbidden version
		return "", false
	}
	for _, s := range parts {
		if !isLowerHex(s) {
			return "", false
		}
	}
	// All-zero trace-id or span-id means "no trace" per the spec.
	if strings.Trim(parts[1], "0") == "" || strings.Trim(parts[2], "0") == "" {
		return "", false
	}
	return parts[1], true
}

func isLowerHex(s string) bool {
	for _, r := range s {
		if !(r >= '0' && r <= '9' || r >= 'a' && r <= 'f') {
			return false
		}
	}
	return true
}

// instrument wraps one route's handler with the request-telemetry layer:
// a root request span carried via the request context, W3C traceparent
// ingest/echo, a generated request ID, RED metrics, the Server-Timing
// stage breakdown, optional structured access logging, and — when track
// is set — capture into the /debug/slowest ring.
func (s *Server) instrument(path string, track bool, h http.HandlerFunc) http.HandlerFunc {
	rt := newRouteTelemetry(routeName(path))
	return func(w http.ResponseWriter, r *http.Request) {
		traceID, ok := parseTraceparent(r.Header.Get("Traceparent"))
		if !ok {
			traceID = obs.NewID(16)
		}
		sp := obs.StartSpan("http."+rt.route, r.URL.Path)
		spanID := obs.NewID(8)
		reqID := obs.NewID(8)

		hdr := w.Header()
		hdr.Set("X-Request-Id", reqID)
		hdr.Set("Traceparent", "00-"+traceID+"-"+spanID+"-01")

		rw := &respWriter{ResponseWriter: w}
		rt.inflight.Add(1)
		defer rt.inflight.Add(-1) // a panicking handler must not leave it raised
		h(rw, r.WithContext(obs.ContextWithSpan(r.Context(), sp)))
		d := sp.End()
		if rw.status == 0 { // handler wrote nothing at all
			rw.status = http.StatusOK
		}

		cache := sp.Tag("cache")
		outcome := cache
		switch {
		case rw.status >= 400:
			outcome = "error"
		case outcome == "":
			outcome = "none"
		}
		rt.observe(outcome, rw.status, d)

		snap := sp.Snapshot()
		if track {
			s.slow.Put(SlowRequest{
				ID:      reqID,
				TraceID: traceID,
				Route:   rt.route,
				Status:  rw.status,
				Cache:   cache,
				DurNS:   d.Nanoseconds(),
				Span:    snap,
			})
		}
		if lg := s.cfg.AccessLog; lg != nil {
			durs := map[string]int64{}
			stageDurations(snap.Children, durs)
			lg.Info("request",
				"id", reqID,
				"trace_id", traceID,
				"route", rt.route,
				"method", r.Method,
				"status", rw.status,
				"cache", cache,
				"bytes", rw.bytes,
				"dur_ns", d.Nanoseconds(),
				"queue_wait_ns", durs[SpanQueue],
				"stages", serverTiming(durs),
			)
		}
	}
}

// stageDurations sums span durations per stage name across a snapshot
// subtree — the flattened per-request breakdown behind Server-Timing and
// the access log.
func stageDurations(nodes []obs.SpanSnap, into map[string]int64) {
	for _, n := range nodes {
		into[n.Name] += n.DurNS
		stageDurations(n.Children, into)
	}
}

// serverTiming renders a stage-duration map as a Server-Timing header
// value — `name;dur=<ms>` entries, sorted by name so the header is
// deterministic for a given breakdown.
func serverTiming(durs map[string]int64) string {
	names := make([]string, 0, len(durs))
	for n := range durs {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s;dur=%.3f", n, float64(durs[n])/1e6)
	}
	return b.String()
}

// SlowRequest is one captured request in the /debug/slowest window: the
// identifying headers, the outcome, and the full span tree.
type SlowRequest struct {
	ID      string       `json:"id"`
	TraceID string       `json:"trace_id"`
	Route   string       `json:"route"`
	Status  int          `json:"status"`
	Cache   string       `json:"cache,omitempty"`
	DurNS   int64        `json:"dur_ns"`
	Span    obs.SpanSnap `json:"span"`
}

// SchemaDebugSlowest versions the /debug/slowest payload.
const SchemaDebugSlowest = "phasemark/debug-slowest/v1"

// handleDebug indexes the debug surface.
func (s *Server) handleDebug(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/debug/" && r.URL.Path != "/debug" {
		countStatus(http.StatusNotFound)
		http.NotFound(w, r)
		return
	}
	countStatus(http.StatusOK)
	w.Header().Set("Content-Type", "application/json")
	w.Write(Encode(map[string]any{
		"endpoints": []string{"/debug/slowest"},
		"hint":      "POST any pipeline endpoint with ?trace=1 for a one-shot Chrome trace",
	}))
}

// handleDebugSlowest serves the slowest requests in the recent capture
// window, slowest first, with their full span trees.
func (s *Server) handleDebugSlowest(w http.ResponseWriter, r *http.Request) {
	reqs := s.slow.Snapshot()
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].DurNS > reqs[j].DurNS })
	countStatus(http.StatusOK)
	w.Header().Set("Content-Type", "application/json")
	w.Write(Encode(map[string]any{
		"schema":   SchemaDebugSlowest,
		"window":   s.slow.Cap(),
		"requests": reqs,
	}))
}
