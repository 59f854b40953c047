package main

import (
	"bytes"
	"net"
	"net/http"
	"runtime"
	"time"
)

// The benchmark's host (a shared 2-core VM) changes speed by 10–30% over
// minutes, and switches between a fast and a slow state every few tens of
// milliseconds; no statistic within one run absorbs that. Every run
// therefore also times two fixed kernels in probes between its timed
// work, never inside it, and reports its times scaled to the reference
// host speed by the sum of the two kernel times, the host time: batch op
// times by the run's median host time (scale), service rounds by the host
// times on either side of each (between), each set-up by the host time
// just before it (setupSeconds). Over ten-run sweeps of every workload the
// sum spread least: the CPU kernel alone misses the host's slow spells in
// system calls and loopback networking, and the network kernel alone
// over-corrects compute work. The kernels are bench code, so no change to
// the program under test moves them; the raw values are printed
// alongside, and per-layer metrics are left raw.

// hostNominal is the host time the calibrated metrics are scaled to, about
// its median on the reference host.
const hostNominal = 10 * time.Millisecond

// hostTable is the CPU kernel's working set. At 256 KiB it stays in the
// core's own caches; of the sizes tried (32 KiB to 1 MiB) it tracked the
// drift of profiling and tracing best.
var hostTable = make([]uint64, 1<<15)

// hostKernel runs a fixed amount of dependent integer work and random
// read-modify-writes over hostTable and returns its wall time.
func hostKernel() time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	mask := uint64(len(hostTable) - 1)
	for i := 0; i < 1<<18; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & mask
		if hostTable[j]&1 == 0 {
			hostTable[j] += x
		} else {
			hostTable[j] ^= x >> 3
		}
	}
	return time.Since(t0)
}

// netKernel is a loopback HTTP server with a fixed 16 KiB reply and a
// keep-alive client. Timing netKernelRequests requests to it exercises
// what the CPU kernel does not: system calls, loopback TCP, goroutine
// wake-ups and allocation on both cores.
type netKernel struct {
	url    string
	hs     *http.Server
	done   chan struct{}
	client *http.Client
}

const netKernelRequests = 100

func startNetKernel() (*netKernel, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	body := bytes.Repeat([]byte{'x'}, 16<<10)
	k := &netKernel{
		url:    "http://" + ln.Addr().String() + "/",
		hs:     &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.Write(body) })},
		done:   make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
	}
	go func() {
		defer close(k.done)
		k.hs.Serve(ln)
	}()
	return k, nil
}

// time runs the kernel once and returns its wall time.
func (k *netKernel) time() (time.Duration, error) {
	var buf bytes.Buffer
	t0 := time.Now()
	for i := 0; i < netKernelRequests; i++ {
		resp, err := k.client.Get(k.url)
		if err != nil {
			return 0, err
		}
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// close stops the server and waits for it.
func (k *netKernel) close() {
	k.client.CloseIdleConnections()
	k.hs.Close()
	<-k.done
}

// probeSample is one probe: a sample of each kernel, then one timed
// set-up.
type probeSample struct{ cpu, net, setup time.Duration }

func (p probeSample) host() time.Duration { return p.cpu + p.net }

// probe runs between a workload's timed ops, when nothing else of the
// run is busy: it takes a sample of each kernel and then times the
// workload's set-up, which returns how long its timed part took. It starts
// from a collected heap, so whether the garbage of the op before happens
// to be collected during the set-up does not change its time.
func (r *result) probe(setup func() (time.Duration, error)) error {
	runtime.GC()
	cpu := hostKernel()
	nt, err := r.net.time()
	if err != nil {
		return err
	}
	d, err := setup()
	if err != nil {
		return err
	}
	r.probes = append(r.probes, probeSample{cpu, nt, d})
	return nil
}

// scale is the factor that converts this run's batch op times to the
// reference host speed.
func (r *result) scale() float64 {
	hs := make([]time.Duration, len(r.probes))
	for i, p := range r.probes {
		hs[i] = p.host()
	}
	return float64(hostNominal) / float64(quantile(hs, 0.5))
}

// between is the factor that converts the time of a stretch of work that
// ran between probes i and i+1 to the reference host speed.
func (r *result) between(i int) float64 {
	h := r.probes[i].host()
	if i+1 < len(r.probes) {
		h = (h + r.probes[i+1].host()) / 2
	}
	return float64(hostNominal) / float64(h)
}

// hostMetrics are the median kernel times, printed with every run.
func (r *result) hostMetrics() []metric {
	cpu := make([]time.Duration, len(r.probes))
	nets := make([]time.Duration, len(r.probes))
	for i, p := range r.probes {
		cpu[i], nets[i] = p.cpu, p.net
	}
	return []metric{
		{name: "host.kernel_ms", value: ms(quantile(cpu, 0.5)), unit: "ms"},
		{name: "host.net_kernel_ms", value: ms(quantile(nets, 0.5)), unit: "ms"},
	}
}

// setupSeconds is the median set-up time, raw or calibrated. Set-up takes
// about a millisecond, so whether the host is in its fast or its slow
// state moves a sample by up to half. The kernels run just before a
// set-up and see the same state, so each sample is calibrated by its own
// probe's host time rather than by the run's.
func (r *result) setupSeconds(calibrate bool) float64 {
	xs := make([]float64, len(r.probes))
	for i, p := range r.probes {
		xs[i] = p.setup.Seconds()
		if calibrate {
			xs[i] *= float64(hostNominal) / float64(p.host())
		}
	}
	return quantileF(xs, 0.5)
}

// samples lists the run's kernel and set-up samples in milliseconds, in
// the order taken, for the --out record.
func (r *result) samples() map[string][]float64 {
	out := map[string][]float64{}
	for _, p := range r.probes {
		out["kernel_ms"] = append(out["kernel_ms"], ms(p.cpu))
		out["net_kernel_ms"] = append(out["net_kernel_ms"], ms(p.net))
		out["setup_ms"] = append(out["setup_ms"], ms(p.setup))
	}
	return out
}
