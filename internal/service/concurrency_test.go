package service_test

import (
	"bytes"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"phasemark/internal/service"
	"phasemark/internal/store"
)

// TestConcurrentColdTrafficComputesEachArtifactOnce fires N goroutines at
// the same mixed request set against a cold store and asserts exactly one
// compute per distinct artifact (everyone else joins the in-flight
// computation or hits disk), with identical response bodies regardless of
// worker count. Run under -race this is also the service's data-race
// check. The request set is cheap by construction: distinct cluster seeds
// share one memoized trace and select ilowers one memoized graph, so each
// further unique request costs a projection and clustering or a marker
// selection, not another interpreter run.
func TestConcurrentColdTrafficComputesEachArtifactOnce(t *testing.T) {
	const workload = "galgel"

	// 8 distinct requests, each replicated by every client goroutine.
	var reqs []struct{ endpoint, body string }
	for seed := 1; seed <= 4; seed++ {
		reqs = append(reqs, struct{ endpoint, body string }{
			service.EndpointCluster,
			fmt.Sprintf(`{"segment":{"workload":%q,"fixed_len":100000},"seed":%d}`, workload, seed),
		})
	}
	for _, ilower := range []int{100000, 200000, 400000, 800000} {
		reqs = append(reqs, struct{ endpoint, body string }{
			service.EndpointSelect,
			fmt.Sprintf(`{"workload":%q,"options":{"ilower":%d}}`, workload, ilower),
		})
	}

	var baseline [][]byte
	for _, workers := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			st, err := store.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			// Queue deep enough that admission never sheds: this test is
			// about dedupe, not overload.
			_, ts := newTestServer(t, service.Config{Store: st, Workers: workers, Queue: 1024})

			const clients = 8
			bodies := make([][][]byte, clients)
			errs := make([]error, clients)
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					bodies[c] = make([][]byte, len(reqs))
					for i, r := range reqs {
						code, body, _ := doPost(ts.URL+r.endpoint, []byte(r.body))
						if code != http.StatusOK {
							errs[c] = fmt.Errorf("req %d: status %d: %s", i, code, body)
							return
						}
						bodies[c][i] = body
					}
				}()
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}

			// Exactly one compute per distinct artifact; the other
			// clients×replicas either joined the flight or hit disk.
			stats := st.Stats()
			if got, want := stats.Computes, uint64(len(reqs)); got != want {
				t.Errorf("store computes = %d, want %d (stats %+v)", got, want, stats)
			}
			if got, want := stats.Joins+stats.DiskHits, uint64((clients-1)*len(reqs)); got != want {
				t.Errorf("joins+hits = %d, want %d (stats %+v)", got, want, stats)
			}

			// Every client saw the same bytes per request...
			for c := 1; c < clients; c++ {
				for i := range reqs {
					if !bytes.Equal(bodies[0][i], bodies[c][i]) {
						t.Errorf("client %d req %d differs from client 0", c, i)
					}
				}
			}
			// ...and the same bytes across worker counts.
			if baseline == nil {
				baseline = bodies[0]
			} else {
				for i := range reqs {
					if !bytes.Equal(baseline[i], bodies[0][i]) {
						t.Errorf("req %d: workers=%d bytes differ from workers=1", i, workers)
					}
				}
			}
		})
	}
}

// doPost is postJSON without the *testing.T, for use inside goroutines
// that must not call fatal helpers.
func doPost(url string, body []byte) (int, []byte, string) {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, []byte(err.Error()), ""
	}
	defer resp.Body.Close()
	data := new(bytes.Buffer)
	if _, err := data.ReadFrom(resp.Body); err != nil {
		return 0, []byte(err.Error()), ""
	}
	return resp.StatusCode, data.Bytes(), resp.Header.Get("X-Phased-Cache")
}

// Gate unit tests live in admission_test.go (internal test package): they
// need to observe semaphore occupancy to sequence saturation without
// races.
