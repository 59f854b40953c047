// Package servtest generates synthetic traffic against a phased server
// (internal/service) and aggregates the outcome into the committed
// bench-service report (results/BENCH_service.json).
//
// Traffic is deterministic: a Scenario's request sequence is a pure
// function of its seed (stats.RNG), so a stress run is reproducible
// request-for-request. Requests draw from three temperature classes —
// hot (a tiny pool hammered repeatedly: store hits after first touch),
// warm (a medium pool: computes early, hits once touched), and cold
// (never-repeated requests: always a compute) — mixed per the scenario's
// Mix ratios. Cold traffic is built from the cheap request families
// (cluster seed sweeps, select ilower sweeps): the server traces the
// shared segment once and profiles the shared input once, so each unique
// request costs a projection and clustering or a marker selection, not
// an interpreter run.
package servtest

import (
	"fmt"

	"phasemark/internal/service"
	"phasemark/internal/stats"
)

// Mix is the cold/warm/hot composition of a scenario's traffic. The
// fields are weights, normalized at generation time; zero everywhere
// means all-cold.
type Mix struct {
	Cold float64 `json:"cold"`
	Warm float64 `json:"warm"`
	Hot  float64 `json:"hot"`
}

// Request is one generated API call.
type Request struct {
	Endpoint string
	Body     []byte
	Kind     string // "cold", "warm", or "hot"
}

// warmPoolSize is the number of distinct requests behind warm traffic.
const warmPoolSize = 32

// hotPool returns the small fixed request set behind hot traffic: one
// request per pipeline endpoint.
func hotPool(workload string) []Request {
	seg := fmt.Sprintf(`{"workload":%q,"fixed_len":100000}`, workload)
	return []Request{
		{Endpoint: service.EndpointProfile, Kind: "hot",
			Body: []byte(fmt.Sprintf(`{"workload":%q}`, workload))},
		{Endpoint: service.EndpointSelect, Kind: "hot",
			Body: []byte(fmt.Sprintf(`{"workload":%q}`, workload))},
		{Endpoint: service.EndpointSegment, Kind: "hot",
			Body: []byte(seg)},
		{Endpoint: service.EndpointCluster, Kind: "hot",
			Body: []byte(fmt.Sprintf(`{"segment":%s,"seed":1}`, seg))},
	}
}

// warmRequest returns warm pool entry i: a cluster seed sweep over a
// shared segmentation, so the pool shares one traced execution.
func warmRequest(workload string, i int) Request {
	return Request{
		Endpoint: service.EndpointCluster,
		Kind:     "warm",
		Body: []byte(fmt.Sprintf(
			`{"segment":{"workload":%q,"fixed_len":100000},"seed":%d}`,
			workload, 1000+i)),
	}
}

// coldRequest returns the i-th never-repeating request, alternating
// between the two cheap unique families: cluster seed sweeps and select
// ilower sweeps. Seeds/ilowers start far above the warm/hot ranges so the
// classes never collide.
func coldRequest(workload string, i int) Request {
	if i%2 == 0 {
		return Request{
			Endpoint: service.EndpointCluster,
			Kind:     "cold",
			Body: []byte(fmt.Sprintf(
				`{"segment":{"workload":%q,"fixed_len":100000},"seed":%d}`,
				workload, 1_000_000+i)),
		}
	}
	return Request{
		Endpoint: service.EndpointSelect,
		Kind:     "cold",
		Body: []byte(fmt.Sprintf(
			`{"workload":%q,"options":{"ilower":%d}}`,
			workload, 1_000_000+i)),
	}
}

// Generate produces the scenario's deterministic request sequence: n
// requests over workload, classes drawn per mix from rng seed. The same
// (workload, n, mix, seed) always yields the same sequence.
func Generate(workload string, n int, mix Mix, seed uint64) []Request {
	total := mix.Cold + mix.Warm + mix.Hot
	if total <= 0 {
		mix, total = Mix{Cold: 1}, 1
	}
	rng := stats.NewRNG(seed)
	hot := hotPool(workload)
	reqs := make([]Request, 0, n)
	cold := 0
	for i := 0; i < n; i++ {
		switch x := rng.Float64() * total; {
		case x < mix.Cold:
			reqs = append(reqs, coldRequest(workload, cold))
			cold++
		case x < mix.Cold+mix.Warm:
			reqs = append(reqs, warmRequest(workload, rng.Intn(warmPoolSize)))
		default:
			reqs = append(reqs, hot[rng.Intn(len(hot))])
		}
	}
	return reqs
}
