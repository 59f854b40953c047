package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"

	"phasemark/internal/obs"
	"phasemark/internal/par"
	"phasemark/internal/store"
)

// Batch request counter plus HTTP outcome classes; each pipeline
// endpoint's request counter lives in its api entry.
var (
	obsReqBatch  = obs.NewCounter("service.req.batch")
	obsStatus2xx = obs.NewCounter("service.status.2xx")
	obsStatus4xx = obs.NewCounter("service.status.4xx")
	obsStatus429 = obs.NewCounter("service.status.429")
	obsStatus5xx = obs.NewCounter("service.status.5xx")
	obsStatus503 = obs.NewCounter("service.status.503")
)

// Config configures a Server.
type Config struct {
	// Store holds response artifacts; required.
	Store *store.Store
	// Workers bounds concurrently executing requests (default
	// GOMAXPROCS). The interpreter run behind a segment uses its share
	// of the machine, par.Share(Workers) goroutines: serial at the
	// default, the pipeline-parallel engine when fewer requests than
	// CPUs may execute at once.
	Workers int
	// Queue bounds requests waiting for an execution slot (default
	// 4×Workers). Work beyond Workers+Queue is rejected with 429.
	Queue int
	// AccessLog, when non-nil, receives one structured entry per request
	// (request ID, trace ID, route, status, bytes, stage breakdown).
	AccessLog *slog.Logger
	// SlowWindow bounds the /debug/slowest capture ring (default 64).
	SlowWindow int
}

func (c Config) workers() int {
	if c.Workers < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

func (c Config) queue() int {
	if c.Queue < 0 {
		return 0
	}
	if c.Queue == 0 {
		return 4 * c.workers()
	}
	return c.Queue
}

func (c Config) slowWindow() int {
	if c.SlowWindow < 1 {
		return 64
	}
	return c.SlowWindow
}

// Server is the phased HTTP service: the four pipeline endpoints plus
// batch, health, and metrics, over one artifact store and one admission
// gate. Construct with New, mount Handler on an http.Server, and call
// StartDrain before http.Server.Shutdown for a graceful stop.
type Server struct {
	cfg  Config
	pl   *Pipeline
	gate *Gate
	mux  *http.ServeMux
	slow *obs.Ring[SlowRequest]
}

// New builds a Server over its artifact store.
func New(cfg Config) *Server {
	if cfg.Store == nil {
		panic("service: Config.Store is required")
	}
	s := &Server{
		cfg:  cfg,
		pl:   &Pipeline{traceWorkers: par.Share(cfg.workers())},
		gate: NewGate(cfg.workers(), cfg.queue()),
		mux:  http.NewServeMux(),
		slow: obs.NewRing[SlowRequest](cfg.slowWindow()),
	}
	// Every route goes through the instrument wrapper (root span, request
	// ID, traceparent, RED metrics); only the pipeline routes feed the
	// slow-request ring.
	route := func(path string, track bool, h http.HandlerFunc) {
		s.mux.HandleFunc(path, s.instrument(path, track, h))
	}
	for path, a := range apis {
		route(path, true, s.handleAPI(a))
	}
	route(EndpointBatch, true, s.handleBatch)
	route("/healthz", false, s.handleHealthz)
	route("/metrics", false, s.handleMetrics)
	route("/debug/", false, s.handleDebug)
	route("/debug/slowest", false, s.handleDebugSlowest)
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Store returns the server's artifact store (stress reporting, tests).
func (s *Server) Store() *store.Store { return s.cfg.Store }

// StartDrain stops admitting work: pipeline endpoints answer 503 and
// /healthz flips unhealthy so load balancers stop routing here. Pair with
// http.Server.Shutdown, which waits for in-flight handlers.
func (s *Server) StartDrain() { s.gate.StartDrain() }

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.gate.Draining() }

// result is one dispatched API call's outcome, shared by the single
// endpoints and the batch items.
type result struct {
	data  []byte
	cache string // store outcome: hit | computed | joined ("" on error)
	key   string // artifact key hex ("" before canonicalization succeeds)
	err   error
}

// api is one pipeline endpoint: the counter of its direct requests and
// its dispatch, which serves both the endpoint and the batch items that
// name it.
type api struct {
	count    *obs.Counter
	dispatch func(s *Server, ctx context.Context, body io.Reader) result
}

// apis is the route table of the pipeline endpoints, keyed by path.
var apis = map[string]api{
	EndpointProfile: endpoint("profile", DecodeProfileRequest, ProfileRequest.Key, (*Pipeline).Profile),
	EndpointSelect:  endpoint("select", DecodeSelectRequest, SelectRequest.Key, (*Pipeline).Select),
	EndpointSegment: endpoint("segment", DecodeSegmentRequest, SegmentRequest.Key, (*Pipeline).Segment),
	EndpointCluster: endpoint("cluster", DecodeClusterRequest, ClusterRequest.Key, (*Pipeline).Cluster),
}

// endpoint builds the api of the pipeline endpoint counted as
// service.req.<name>. Its dispatch executes one call: decode and
// canonicalize, admit through the gate, then serve from the store or
// compute once. ctx carries the request span; the gate and store attach
// their phases to it as child spans.
func endpoint[T any](name string,
	decode func(io.Reader) (T, error),
	key func(T) store.Key,
	compute func(*Pipeline, context.Context, T) ([]byte, error),
) api {
	dispatch := func(s *Server, ctx context.Context, body io.Reader) result {
		req, err := decode(body)
		if err != nil {
			return result{err: err}
		}
		k := key(req)
		var data []byte
		var outcome store.Outcome
		err = s.gate.Do(ctx, func() error {
			var cerr error
			data, outcome, cerr = s.cfg.Store.GetOrCompute(ctx, k, func(cctx context.Context) ([]byte, error) {
				return compute(s.pl, cctx, req)
			})
			return cerr
		})
		if err != nil {
			return result{key: k.String(), err: err}
		}
		return result{data: data, cache: outcome.String(), key: k.String()}
	}
	return api{count: obs.NewCounter("service.req." + name), dispatch: dispatch}
}

// status maps a dispatch error to its HTTP status.
func status(err error) int {
	var reqErr *RequestError
	switch {
	case err == nil:
		return http.StatusOK
	case errors.As(err, &reqErr):
		return http.StatusBadRequest
	case errors.Is(err, ErrSaturated):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func countStatus(code int) {
	switch {
	case code == http.StatusTooManyRequests:
		obsStatus429.Inc()
	case code == http.StatusServiceUnavailable:
		obsStatus503.Inc()
	case code >= 500:
		obsStatus5xx.Inc()
	case code >= 400:
		obsStatus4xx.Inc()
	case code >= 200 && code < 300:
		obsStatus2xx.Inc()
	}
}

// errorBody renders the uniform error payload.
func errorBody(err error) []byte {
	return Encode(map[string]string{"error": err.Error()})
}

// finish closes out one single-endpoint dispatch: it tags the root
// request span with the cache outcome, exposes the per-stage breakdown as
// a Server-Timing header, and — when the client asked with ?trace=1 —
// replaces the artifact body with the request's Chrome trace. Everything
// else falls through to write.
func (s *Server) finish(w http.ResponseWriter, r *http.Request, res result) {
	sp := obs.SpanFromContext(r.Context())
	if sp != nil {
		if res.cache != "" {
			sp.SetTag("cache", res.cache)
		}
		if res.err != nil {
			sp.SetTag("error", res.err.Error())
		}
		durs := map[string]int64{}
		stageDurations(sp.Snapshot().Children, durs)
		if len(durs) > 0 {
			w.Header().Set("Server-Timing", serverTiming(durs))
		}
		if res.err == nil && r.URL.Query().Get("trace") == "1" {
			h := w.Header()
			h.Set("Content-Type", "application/json")
			h.Set("X-Phased-Trace", "1")
			if res.key != "" {
				h.Set("X-Phased-Key", res.key)
			}
			h.Set("X-Phased-Cache", res.cache)
			countStatus(http.StatusOK)
			// The root span is still open; its snapshot is measured as of
			// now, children are final.
			_ = sp.WriteChromeTrace(w)
			return
		}
	}
	write(w, res)
}

// write emits one dispatch result over HTTP.
func write(w http.ResponseWriter, res result) {
	code := status(res.err)
	countStatus(code)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	if res.key != "" {
		h.Set("X-Phased-Key", res.key)
	}
	if res.cache != "" {
		h.Set("X-Phased-Cache", res.cache)
	}
	if code == http.StatusTooManyRequests {
		h.Set("Retry-After", strconv.Itoa(RetryAfterSeconds))
	}
	w.WriteHeader(code)
	if res.err != nil {
		w.Write(errorBody(res.err))
		return
	}
	w.Write(res.data)
}

// post guards the pipeline endpoints' method.
func post(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		countStatus(http.StatusMethodNotAllowed)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return false
	}
	return true
}

// handleAPI serves one pipeline endpoint.
func (s *Server) handleAPI(a api) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !post(w, r) {
			return
		}
		a.count.Inc()
		s.finish(w, r, a.dispatch(s, r.Context(), r.Body))
	}
}

// BatchRequest fans a set of API calls through the service in one HTTP
// round trip.
type BatchRequest struct {
	Requests []BatchItem `json:"requests"`
}

// BatchItem is one API call inside a batch: the endpoint path and its
// request body.
type BatchItem struct {
	Endpoint string          `json:"endpoint"`
	Body     json.RawMessage `json:"body"`
}

// BatchResult is one batch item's outcome. Status and Body mirror exactly
// what the item's standalone endpoint would have returned (including
// per-item 429s under saturation); Cache and Key mirror the headers.
type BatchResult struct {
	Status int             `json:"status"`
	Cache  string          `json:"cache,omitempty"`
	Key    string          `json:"key,omitempty"`
	Body   json.RawMessage `json:"body"`
}

// BatchResponse is the batch endpoint's payload.
type BatchResponse struct {
	Schema  string        `json:"schema"`
	Results []BatchResult `json:"results"`
}

// maxBatchItems bounds one batch request.
const maxBatchItems = 1024

// handleBatch runs the batch items over the shared worker-pool primitive
// (par.ForEach) with the server's execution width. Each item passes
// through the admission gate individually, so a saturated server degrades
// batches item-by-item (per-item 429) rather than all-or-nothing.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if !post(w, r) {
		return
	}
	obsReqBatch.Inc()
	var req BatchRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		write(w, result{err: err})
		return
	}
	if len(req.Requests) > maxBatchItems {
		write(w, result{err: reqErrf("batch of %d items exceeds limit %d", len(req.Requests), maxBatchItems)})
		return
	}
	results := make([]BatchResult, len(req.Requests))
	ctx := r.Context()
	par.ForEach(len(req.Requests), s.cfg.workers(), nil, func(_, i int) {
		results[i] = s.batchItem(ctx, req.Requests[i])
	})
	resp := &BatchResponse{Schema: SchemaBatch, Results: results}
	countStatus(http.StatusOK)
	w.Header().Set("Content-Type", "application/json")
	w.Write(Encode(resp))
}

// batchItem dispatches one batch entry through the same path as its
// standalone endpoint, under a per-item child span of the batch request.
func (s *Server) batchItem(ctx context.Context, item BatchItem) BatchResult {
	isp := obs.SpanFromContext(ctx).Child("batch.item", item.Endpoint)
	ictx := obs.ContextWithSpan(ctx, isp)
	res := result{err: reqErrf("unknown batch endpoint %q", item.Endpoint)}
	if a, ok := apis[item.Endpoint]; ok {
		res = a.dispatch(s, ictx, bytes.NewReader(item.Body))
	}
	if res.cache != "" {
		isp.SetTag("cache", res.cache)
	}
	isp.End()
	out := BatchResult{Status: status(res.err), Cache: res.cache, Key: res.key}
	if res.err != nil {
		out.Body = errorBody(res.err)
	} else {
		out.Body = res.data
	}
	countStatus(out.Status)
	return out
}

// healthResponse is the /healthz payload: liveness plus the build stamp,
// so a fleet scrape identifies which binary answers.
type healthResponse struct {
	Status string    `json:"status"`
	Store  string    `json:"store,omitempty"`
	Build  BuildInfo `json:"build"`
}

// handleHealthz reports liveness: 200 while serving, 503 while draining
// (so orchestrators stop routing before shutdown completes).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.Draining() {
		countStatus(http.StatusServiceUnavailable)
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write(Encode(healthResponse{Status: "draining", Build: Build()}))
		return
	}
	countStatus(http.StatusOK)
	w.Write(Encode(healthResponse{Status: "ok", Store: s.cfg.Store.Dir(), Build: Build()}))
}

// promContentType is the Prometheus text exposition content type.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// wantsPrometheus decides the /metrics representation: an explicit
// ?format= wins (prometheus|prom|text vs json); otherwise an Accept header
// naming text/plain or openmetrics selects the exposition format, and the
// default stays JSON for existing tooling.
func wantsPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prometheus", "prom", "text":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") || strings.Contains(accept, "openmetrics")
}

// handleMetrics serves a snapshot of the internal/obs registry — counters
// (store + cell + admission + pipeline + per-route RED), gauges,
// histograms, and per-stage span aggregates — as indented JSON by default
// or in the Prometheus text exposition format under content negotiation
// (see wantsPrometheus).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := obs.Snapshot()
	countStatus(http.StatusOK)
	// A write error below means the scraper hung up mid-snapshot; there is
	// no response left to salvage.
	if wantsPrometheus(r) {
		w.Header().Set("Content-Type", promContentType)
		_ = snap.WritePrometheus(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = snap.WriteJSON(w)
}
