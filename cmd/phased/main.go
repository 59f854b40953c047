// Command phased serves the phase-marker analysis pipeline over HTTP, or
// stress-tests it against synthetic traffic.
//
// Serve mode (default):
//
//	phased -addr :8080 -store .phased-store
//	phased -addr :8080 -workers 8 -queue 32
//
// exposes /v1/profile, /v1/select, /v1/segment, /v1/cluster, /v1/batch,
// /healthz, and /metrics (see internal/service). Responses are
// content-addressed in the -store directory: identical requests — across
// clients and across restarts — compute once. SIGINT/SIGTERM starts a
// graceful drain: /healthz flips to 503, new work is rejected, in-flight
// requests finish (up to -drain-timeout), then the process exits.
//
// Stress mode:
//
//	phased -stress
//	phased -stress -stress-requests 200 -stress-out results/BENCH_service.json
//
// boots an in-process server on an ephemeral port and drives the
// internal/servtest scenario suite against it — cold (all-unique
// traffic), mixed (cold/warm/hot per the paper-tool usage pattern), hot
// (a tiny request pool hammered), restart (a fresh process over the same
// store must serve everything from disk without recomputing), and
// saturate (a deliberately tiny server under excess concurrency, where
// 429s are the expected behavior). Results append to -stress-out under
// -stress-label (schema phasemark/bench-service/v2, see EXPERIMENTS.md).
// Any steady-state 5xx, transport failure, unexpected 429, or
// telemetry-consistency violation (stage durations exceeding wall time,
// cache hits reporting a compute stage) exits 1.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"phasemark/internal/service"
	"phasemark/internal/servtest"
	"phasemark/internal/store"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "serve: listen address")
		storeDir     = flag.String("store", ".phased-store", "artifact store directory")
		workers      = flag.Int("workers", 0, "max concurrently executing requests (0 = GOMAXPROCS); each request's profile or trace gets GOMAXPROCS/workers goroutines (at least 1)")
		queue        = flag.Int("queue", 0, "max requests queued for a slot (0 = 4x workers)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "serve: max wait for in-flight requests on shutdown")
		accessLog    = flag.Bool("log", false, "serve: emit a structured (JSON) access log line per request to stderr")
		version      = flag.Bool("version", false, "print build information and exit")

		stress         = flag.Bool("stress", false, "run the synthetic stress suite instead of serving")
		stressOut      = flag.String("stress-out", "results/BENCH_service.json", "stress: report path")
		stressLabel    = flag.String("stress-label", "dev", "stress: run label in the report")
		stressRequests = flag.Int("stress-requests", 1000, "stress: base scenario size (scenarios scale from this)")
		stressWorkload = flag.String("stress-workload", "lucas", "stress: workload behind the traffic")
		stressSeed     = flag.Uint64("stress-seed", 1, "stress: traffic generation seed")
	)
	flag.Parse()

	if *version {
		fmt.Println(service.Build().String())
		os.Exit(0)
	}
	if *stress {
		os.Exit(runStress(stressConfig{
			out:      *stressOut,
			label:    *stressLabel,
			requests: *stressRequests,
			workload: *stressWorkload,
			seed:     *stressSeed,
			workers:  *workers,
			queue:    *queue,
		}))
	}
	os.Exit(serve(*addr, *storeDir, *workers, *queue, *drainTimeout, *accessLog))
}

// serve runs the service until SIGINT/SIGTERM, then drains gracefully.
func serve(addr, dir string, workers, queue int, drainTimeout time.Duration, accessLog bool) int {
	st, err := store.Open(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "phased: %v\n", err)
		return 1
	}
	cfg := service.Config{Store: st, Workers: workers, Queue: queue}
	if accessLog {
		cfg.AccessLog = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	srv := service.New(cfg)
	hs := &http.Server{Addr: addr, Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "phased: %s\n", service.Build())
	fmt.Fprintf(os.Stderr, "phased: serving on %s (store %s)\n", addr, dir)

	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "phased: %v\n", err)
		return 1
	case <-ctx.Done():
	}

	// Drain: stop admitting (503s + unhealthy healthz), then wait for
	// in-flight handlers.
	fmt.Fprintln(os.Stderr, "phased: draining")
	srv.StartDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintf(os.Stderr, "phased: shutdown: %v\n", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "phased: drained")
	return 0
}

type stressConfig struct {
	out      string
	label    string
	requests int
	workload string
	seed     uint64
	workers  int
	queue    int
}

// startServer boots a service over dir on an ephemeral port, returning
// the server, its base URL, and a shutdown func.
func startServer(dir string, cfg service.Config) (*service.Server, string, func(), error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, "", nil, err
	}
	cfg.Store = st
	srv := service.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
	}
	return srv, "http://" + ln.Addr().String(), stop, nil
}

// runScenario executes sc against srv at baseURL and attaches the
// server-side store stats delta.
func runScenario(srv *service.Server, baseURL string, sc servtest.Scenario) servtest.ScenarioResult {
	before := srv.Store().Stats()
	res := sc.Run(baseURL, nil)
	after := srv.Store().Stats()
	res.Store = servtest.StoreCounts{
		Computes: after.Computes - before.Computes,
		DiskHits: after.DiskHits - before.DiskHits,
		Joins:    after.Joins - before.Joins,
	}
	fmt.Fprintf(os.Stderr, "  %-10s %5d req  %6.0f req/s  ok=%d shed=%d 5xx=%d  hit=%d computed=%d joined=%d  p50=%s p99=%s\n",
		sc.Name, res.Requests, res.ReqPerSec,
		res.Status.OK, res.Status.Shed, res.Status.ServerErr,
		res.Cache.Hit, res.Cache.Computed, res.Cache.Joined,
		time.Duration(res.Latency.P50NS), time.Duration(res.Latency.P99NS))
	return res
}

// runStress drives the scenario suite and writes the report; nonzero on
// any steady-state violation.
func runStress(cfg stressConfig) int {
	dir, err := os.MkdirTemp("", "phased-stress-*")
	if err != nil {
		fmt.Fprintf(os.Stderr, "phased: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	workers := cfg.workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	queue := cfg.queue
	if queue <= 0 {
		queue = 4 * workers
	}
	// Steady-state concurrency stays under workers+queue so admission
	// control never sheds outside the saturate scenario.
	concurrency := 2 * workers
	n := cfg.requests
	fmt.Fprintf(os.Stderr, "phased stress: workload %s, base %d requests, %d workers / %d queue, concurrency %d\n",
		cfg.workload, n, workers, queue, concurrency)

	srv, baseURL, stop, err := startServer(dir, service.Config{Workers: workers, Queue: queue})
	if err != nil {
		fmt.Fprintf(os.Stderr, "phased: %v\n", err)
		return 1
	}

	base := servtest.Scenario{Workload: cfg.workload, Concurrency: concurrency, Seed: cfg.seed}
	cold, mixed, hot := base, base, base
	cold.Name, cold.Requests, cold.Mix = "cold", n, servtest.Mix{Cold: 1}
	mixed.Name, mixed.Requests, mixed.Mix = "mixed", 2*n, servtest.Mix{Cold: 0.1, Warm: 0.5, Hot: 0.4}
	mixed.Seed = cfg.seed + 1
	hot.Name, hot.Requests, hot.Mix = "hot", n, servtest.Mix{Hot: 1}

	results := []servtest.ScenarioResult{
		runScenario(srv, baseURL, cold),
		runScenario(srv, baseURL, mixed),
		runScenario(srv, baseURL, hot),
	}
	stop()

	// Restart: a fresh process image (new server, cold memos) over the
	// same store directory replays the hot traffic; everything must come
	// off disk without a single recompute.
	srv2, baseURL2, stop2, err := startServer(dir, service.Config{Workers: workers, Queue: queue})
	if err != nil {
		fmt.Fprintf(os.Stderr, "phased: %v\n", err)
		return 1
	}
	restart := hot
	restart.Name = "restart"
	restartRes := runScenario(srv2, baseURL2, restart)
	results = append(results, restartRes)
	stop2()

	// Saturate: a deliberately tiny server (1 worker, 2 queue places)
	// under 32-way concurrency; shed traffic is the expected outcome,
	// 5xx still is not.
	satDir, err := os.MkdirTemp("", "phased-sat-*")
	if err != nil {
		fmt.Fprintf(os.Stderr, "phased: %v\n", err)
		return 1
	}
	defer os.RemoveAll(satDir)
	srv3, baseURL3, stop3, err := startServer(satDir, service.Config{Workers: 1, Queue: 2})
	if err != nil {
		fmt.Fprintf(os.Stderr, "phased: %v\n", err)
		return 1
	}
	saturate := base
	saturate.Name, saturate.Requests, saturate.Mix = "saturate", n/4, servtest.Mix{Cold: 1}
	saturate.Concurrency, saturate.ExpectShed = 32, true
	saturate.Seed = cfg.seed + 2
	results = append(results, runScenario(srv3, baseURL3, saturate))
	stop3()

	// Validate the suite's contract before recording it.
	var violations []string
	for _, res := range results {
		violations = append(violations, res.Check()...)
	}
	if restartRes.Store.Computes != 0 {
		violations = append(violations,
			fmt.Sprintf("restart: %d recomputes, want everything served from the store", restartRes.Store.Computes))
	}

	report, err := servtest.LoadReport(cfg.out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "phased: %v\n", err)
		return 1
	}
	report.SetRun(servtest.Run{
		Label:     cfg.label,
		Go:        runtime.Version(),
		Build:     service.Build().String(),
		Workers:   workers,
		Queue:     queue,
		Scenarios: results,
	})
	if err := writeReport(cfg.out, report); err != nil {
		fmt.Fprintf(os.Stderr, "phased: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "phased stress: wrote %s (label %q)\n", cfg.out, cfg.label)

	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "phased stress: FAIL %s\n", v)
		}
		return 1
	}
	return 0
}

func writeReport(path string, r *servtest.Report) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
