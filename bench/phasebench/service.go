package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"phasemark/internal/core"
	"phasemark/internal/minivm"
	"phasemark/internal/service"
	"phasemark/internal/simpoint"
	"phasemark/internal/store"
	"phasemark/internal/trace"
	"phasemark/internal/uarch"
	"phasemark/internal/workloads"
)

// The service workloads: two closed-loop clients against an in-process
// phased on loopback, all traffic on one program. Each workload is one
// request class, because no record of real traffic says how classes mix:
// service_hit asks only for stored answers, service_compute only for new
// ones.
const (
	serviceProgram  = "lucas"
	serviceClients  = 2
	serviceFixedLen = 100_000
)

// serviceRoundSeconds is the reference-host length of a round of requests.
// The clients wait between rounds while the run probes the host, and each
// round is calibrated by the probes on either side of it. Over ten runs,
// quarter-second rounds calibrated this way spread 2–5% where one factor
// for the whole run spread 4–12%.
const serviceRoundSeconds = 0.25

// rootStages are a request's sequential server-side phases, in order;
// pipelineStages are the compute stages the metrics name.
var (
	rootStages     = []string{service.SpanQueue, store.SpanGet, store.SpanCompute, store.SpanWrite, store.SpanJoin}
	pipelineStages = []string{service.SpanProject, service.SpanCluster}
)

// serviceWorkload is one single-class service workload.
type serviceWorkload struct {
	// rate is the requests per second on the reference host; a run issues
	// rate × --seconds requests.
	rate float64
	// requests returns the distinct requests of a run of n for a seed, and
	// which of them the i-th request is.
	requests func(seed uint64, n int) (distinct []apiRequest, pick func(i int) int)
	// warm issues every distinct request once before the timed rounds,
	// so the timed requests find their answers stored.
	warm bool
	// outcomes are the store outcomes a timed request may report.
	outcomes []store.Outcome
}

var serviceWorkloads = map[string]serviceWorkload{
	// A hit may join a concurrent read of the same stored answer.
	"service_hit":     {rate: 12000, requests: hitRequests, warm: true, outcomes: []store.Outcome{store.Hit, store.Joined}},
	"service_compute": {rate: 11, requests: computeRequests, outcomes: []store.Outcome{store.Computed}},
}

// apiRequest is one generated API call.
type apiRequest struct {
	endpoint string
	body     []byte
}

func (r apiRequest) key() string { return r.endpoint + " " + string(r.body) }

var fixedSegment = fmt.Sprintf(`{"workload":%q,"fixed_len":%d}`, serviceProgram, serviceFixedLen)

func clusterRequest(seed uint64) apiRequest {
	return apiRequest{service.EndpointCluster, []byte(fmt.Sprintf(`{"segment":%s,"seed":%d}`, fixedSegment, seed))}
}

// clusterSeed is the i-th SimPoint seed a run asks for: distinct for
// distinct i, never 0 (which means "default"), below 2^53.
func clusterSeed(seed uint64, i int) uint64 {
	return mix64(mix64(seed+golden)+uint64(i))>>11 + 1
}

// hitRequests draws n requests uniformly from one request per pipeline
// endpoint; the cluster request's SimPoint seed comes from seed.
func hitRequests(seed uint64, n int) ([]apiRequest, func(int) int) {
	pool := []apiRequest{
		{service.EndpointProfile, []byte(fmt.Sprintf(`{"workload":%q}`, serviceProgram))},
		{service.EndpointSelect, []byte(fmt.Sprintf(`{"workload":%q}`, serviceProgram))},
		{service.EndpointSegment, []byte(fixedSegment)},
		clusterRequest(clusterSeed(seed, 0)),
	}
	return pool, func(i int) int { return int(mix64(seed+uint64(i+1)*golden) % uint64(len(pool))) }
}

// computeRequests is a sweep of n SimPoint seeds over one segmentation.
// Every request is new, so each one projects the ref run afresh.
func computeRequests(seed uint64, n int) ([]apiRequest, func(int) int) {
	out := make([]apiRequest, n)
	for i := range out {
		out[i] = clusterRequest(clusterSeed(seed, i))
	}
	return out, func(i int) int { return i }
}

// oracle computes the reply phased must send to a request through the
// repository's in-process reference path, the one the service's
// byte-identity tests compare against: artifacts computed directly with
// core, trace and simpoint, rendered by the service's response builders.
type oracle struct {
	w     *workloads.Workload
	prog  *minivm.Program
	graph *core.Graph   // train profile
	fixed *trace.Result // materialized ref run, cut every serviceFixedLen
}

func newOracle() (*oracle, error) {
	w, err := workloads.ByName(serviceProgram)
	if err != nil {
		return nil, err
	}
	prog, err := w.Compile(false)
	if err != nil {
		return nil, err
	}
	return &oracle{w: w, prog: prog}, nil
}

func (o *oracle) train() (*core.Graph, error) {
	var err error
	if o.graph == nil {
		o.graph, err = core.ProfileRun(o.prog, o.w.Train...)
	}
	return o.graph, err
}

func (o *oracle) segment(req service.SegmentRequest) (*trace.Result, error) {
	if req.Select != nil || req.FixedLen != serviceFixedLen {
		return nil, fmt.Errorf("no reference for segment %+v", req)
	}
	var err error
	if o.fixed == nil {
		o.fixed, err = trace.Run(trace.Config{Prog: o.prog, Args: o.w.Ref, CPU: uarch.DefaultConfig(), FixedLen: serviceFixedLen})
	}
	return o.fixed, err
}

// reply returns the expected body for one of the requests the workloads
// issue.
func (o *oracle) reply(r apiRequest) ([]byte, error) {
	body := bytes.NewReader(r.body)
	switch r.endpoint {
	case service.EndpointProfile:
		req, err := decodeCanon(service.DecodeProfileRequest, service.ProfileRequest.Canon, body)
		if err != nil || req.Input != service.InputTrain {
			return nil, fmt.Errorf("no reference for profile %+v: %v", req, err)
		}
		g, err := o.train()
		if err != nil {
			return nil, err
		}
		return service.Encode(service.NewProfileResponse(req, g)), nil
	case service.EndpointSelect:
		req, err := decodeCanon(service.DecodeSelectRequest, service.SelectRequest.Canon, body)
		if err != nil || req.Input != service.InputTrain {
			return nil, fmt.Errorf("no reference for select %+v: %v", req, err)
		}
		g, err := o.train()
		if err != nil {
			return nil, err
		}
		return service.Encode(service.NewSelectResponse(req, core.SelectMarkers(g, req.Options.SelectOptions()))), nil
	case service.EndpointSegment:
		req, err := decodeCanon(service.DecodeSegmentRequest, service.SegmentRequest.Canon, body)
		if err != nil {
			return nil, err
		}
		res, err := o.segment(req)
		if err != nil {
			return nil, err
		}
		return service.Encode(service.NewSegmentResponse(req, res)), nil
	case service.EndpointCluster:
		req, err := decodeCanon(service.DecodeClusterRequest, service.ClusterRequest.Canon, body)
		if err != nil {
			return nil, err
		}
		res, err := o.segment(req.Segment)
		if err != nil {
			return nil, err
		}
		return service.Encode(service.NewClusterResponse(req, res, simpoint.Classify(res, service.ClusterOptions(req)))), nil
	}
	return nil, fmt.Errorf("no reference for endpoint %s", r.endpoint)
}

// decodeCanon decodes a request body and canonicalizes it as the server
// does.
func decodeCanon[T any](decode func(io.Reader) (T, error), canon func(T) (T, error), body io.Reader) (T, error) {
	req, err := decode(body)
	if err != nil {
		return req, err
	}
	return canon(req)
}

// server is one phased instance on a fresh store.
type server struct {
	url  string
	dir  string
	hs   *http.Server
	done chan struct{}
}

// startServer opens a store in the empty directory dir, builds the
// service with its default configuration, listens on loopback and waits
// for /healthz to answer.
func startServer(dir string) (*server, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		url:  "http://" + ln.Addr().String(),
		dir:  dir,
		hs:   &http.Server{Handler: service.New(service.Config{Store: st}).Handler()},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln)
	}()
	resp, err := http.Get(s.url + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// close shuts the server down, waits for it, and removes its store.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	<-s.done
	os.RemoveAll(s.dir)
}

// reply is one finished timed request as the client saw it; only a traced
// run keeps them.
type reply struct {
	client int
	start  time.Duration // since the first round began
	lat    time.Duration
	stages map[string]time.Duration // from Server-Timing
}

// parseServerTiming reads `name;dur=<ms>` entries.
func parseServerTiming(h string) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, entry := range strings.Split(h, ",") {
		name, params, _ := strings.Cut(strings.TrimSpace(entry), ";")
		for _, p := range strings.Split(params, ";") {
			if v, ok := strings.CutPrefix(strings.TrimSpace(p), "dur="); ok {
				if ms, err := strconv.ParseFloat(v, 64); err == nil {
					out[name] += time.Duration(ms * 1e6)
				}
			}
		}
	}
	return out
}

// runService computes every expected reply, starts the server, warms it
// if the workload asks, then issues the run's fixed number of requests in
// rounds of about serviceRoundSeconds, a multiple of the client count. A
// probe runs before the first round and after each, while the clients
// wait; its set-up sample starts a second server on a fresh store and
// stops it again. A request fails unless it answers 200 with one of the
// workload's store outcomes and the expected body.
func runService(cfg config, rec *recorder, w serviceWorkload, nk *netKernel) (*result, error) {
	n := max(1, int(math.Round(w.rate*float64(cfg.seconds))))
	round := serviceClients * max(1, int(math.Round(w.rate*serviceRoundSeconds/serviceClients)))
	if smoke != nil {
		n, round = smoke.requests, max(1, smoke.requests/2)
	}
	distinct, pick := w.requests(cfg.seed, n)

	orc, err := newOracle()
	if err != nil {
		return nil, fmt.Errorf("reference pipeline: %w", err)
	}
	want := make([][]byte, len(distinct))
	for j, r := range distinct {
		if want[j], err = orc.reply(r); err != nil {
			return nil, fmt.Errorf("reference reply to %s: %w", r.key(), err)
		}
	}
	// Collect the reference path's garbage now, so that whether a cycle
	// happens to run before the server starts does not move peak_rss_mb.
	runtime.GC()

	// Store directories are made outside the timed set-up: how long a
	// mkdir takes depends on the file system's history, not on phased.
	base, err := os.MkdirTemp("", "phasebench-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)
	dirs := 0
	newDir := func() (string, error) {
		dirs++
		d := filepath.Join(base, strconv.Itoa(dirs))
		return d, os.Mkdir(d, 0o777)
	}

	res := &result{net: nk}
	var srv *server
	err = res.probe(func() (time.Duration, error) {
		dir, err := newDir()
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		srv, err = startServer(dir)
		return time.Since(t0), err
	})
	if err != nil {
		return nil, fmt.Errorf("start service: %w", err)
	}
	defer srv.close()
	spare := func() (time.Duration, error) {
		dir, err := newDir()
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		s, err := startServer(dir)
		d := time.Since(t0)
		if err != nil {
			return 0, err
		}
		s.close()
		return d, nil
	}

	tr := &http.Transport{MaxIdleConnsPerHost: serviceClients}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 2 * time.Minute}
	var mu sync.Mutex // guards res.fail from the clients
	type answer struct {
		status int
		cache  string
		timing string
		err    error
	}
	post := func(r apiRequest, want []byte, buf *bytes.Buffer) answer {
		resp, err := client.Post(srv.url+r.endpoint, "application/json", bytes.NewReader(r.body))
		if err != nil {
			return answer{err: err}
		}
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		a := answer{resp.StatusCode, resp.Header.Get("X-Phased-Cache"), resp.Header.Get("Server-Timing"), err}
		if err == nil && a.status == http.StatusOK && !bytes.Equal(buf.Bytes(), want) {
			a.err = fmt.Errorf("body differs from the reference pipeline's")
		}
		return a
	}
	check := func(r apiRequest, a answer, outcomes ...store.Outcome) {
		for _, o := range outcomes {
			if a.err == nil && a.status == http.StatusOK && a.cache == o.String() {
				return
			}
		}
		mu.Lock()
		defer mu.Unlock()
		res.fail(cfg, "%s: status %d, cache %q, want one of %v: %v", r.key(), a.status, a.cache, outcomes, a.err)
	}

	if w.warm {
		var buf bytes.Buffer
		for j, r := range distinct {
			res.attempted++
			check(r, post(r, want[j], &buf), store.Computed)
		}
	}

	lats := make([]time.Duration, n)
	var replies []reply
	if rec != nil {
		replies = make([]reply, n)
	}
	var gort goRuntime
	var rounds []time.Duration
	issued := 0
	t0 := time.Now()
	deadline := t0.Add(capFactor * time.Duration(cfg.seconds) * time.Second)
	for ; issued < n; issued = min(issued+round, n) {
		if issued > 0 && time.Now().After(deadline) {
			res.capped = true
			break
		}
		from, to := issued, min(issued+round, n)
		gort.start()
		start := time.Now()
		var next atomic.Int64
		next.Store(int64(from))
		var wg sync.WaitGroup
		for c := 0; c < serviceClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				var buf bytes.Buffer
				for i := int(next.Add(1) - 1); i < to; i = int(next.Add(1) - 1) {
					j := pick(i)
					began := time.Since(t0)
					a := post(distinct[j], want[j], &buf)
					lat := time.Since(t0) - began
					lats[i] = lat
					check(distinct[j], a, w.outcomes...)
					if replies != nil {
						replies[i] = reply{c, began, lat, parseServerTiming(a.timing)}
					}
				}
			}(c)
		}
		wg.Wait()
		rounds = append(rounds, time.Since(start))
		gort.stop()
		if err := res.probe(spare); err != nil {
			return nil, fmt.Errorf("start service: %w", err)
		}
	}
	lats = lats[:issued]
	res.attempted += issued
	res.passes = len(rounds)

	// Round k ran between probes k and k+1.
	cal := make([]time.Duration, issued)
	var busy, calBusy float64
	for k, d := range rounds {
		f := res.between(k)
		busy += d.Seconds()
		calBusy += d.Seconds() * f
		for i := k * round; i < min((k+1)*round, issued); i++ {
			cal[i] = time.Duration(float64(lats[i]) * f)
		}
	}
	// p90 is the highest percentile with ten requests beyond it in a
	// service_compute run; service_hit reports the same percentile.
	res.raw = perf{float64(issued) / busy, quantile(lats, 0.5), quantile(lats, 0.9)}
	res.cal = perf{float64(issued) / calBusy, quantile(cal, 0.5), quantile(cal, 0.9)}
	if rec != nil {
		res.layers, res.extra = serviceLayers(rec, replies[:issued])
		gort.layers(res.layers, issued)
	}
	return res, nil
}

// serviceLayers turns each reply's Server-Timing stages into the per-layer
// metrics and into spans under the client's span, laid end to end in
// stage order (the header gives durations, not start times).
func serviceLayers(rec *recorder, replies []reply) (map[string]float64, []metric) {
	var client, overhead time.Duration
	sums := map[string]time.Duration{}
	samples := map[string][]time.Duration{}
	for _, r := range replies {
		id := rec.add("client", -1, r.client, r.start, r.lat)
		at := r.start
		var root time.Duration
		for _, name := range rootStages {
			d, has := r.stages[name]
			if !has {
				continue
			}
			sid := rec.add(name, id, r.client, at, d)
			if name == store.SpanCompute {
				sub := at
				for _, p := range pipelineStages {
					if pd, has := r.stages[p]; has {
						rec.add(p, sid, r.client, sub, pd)
						sub += pd
					}
				}
			}
			at += d
			root += d
		}
		client += r.lat
		overhead += r.lat - root
		samples["service.client_overhead_ms"] = append(samples["service.client_overhead_ms"], r.lat-root)
		for name, d := range r.stages {
			sums[name] += d
			samples[name+"_ms"] = append(samples[name+"_ms"], d)
		}
	}
	share := func(stage string) float64 { return 100 * sums[stage].Seconds() / client.Seconds() }
	m := map[string]float64{
		"req.queue_pct":         share(service.SpanQueue),
		"store.get_pct":         share(store.SpanGet),
		"store.compute_pct":     share(store.SpanCompute),
		"store.write_pct":       share(store.SpanWrite),
		"pipeline.project_pct":  share(service.SpanProject),
		"pipeline.cluster_pct":  share(service.SpanCluster),
		"bench.unaccounted_pct": 100 * overhead.Seconds() / client.Seconds(),
	}
	var extra []metric
	for _, q := range []struct {
		name string
		p    float64
	}{
		{"service.client_overhead_ms", 0.5},
		{"req.queue_ms", 0.99},
		{"store.get_ms", 0.5},
		{"store.write_ms", 0.5},
		{"store.write_ms", 0.99},
		{"store.compute_ms", 0.5},
		{"pipeline.project_ms", 0.5},
		{"pipeline.cluster_ms", 0.5},
	} {
		if s := samples[q.name]; len(s) > 0 {
			extra = append(extra, metric{name: fmt.Sprintf("%s.p%d", q.name, int(q.p*100)), value: ms(quantile(s, q.p)), unit: "ms"})
		}
	}
	return m, extra
}
