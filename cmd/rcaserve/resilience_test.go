package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"dspaddr/internal/api"
	"dspaddr/internal/engine"
	"dspaddr/internal/faults"
)

// Node-side resilience behavior: client cancellation reclaiming a
// worker, the adaptive load-shedding policy on the synchronous paths,
// and the gray-failure response faults the soak harness arms.

func statsOf(t *testing.T, baseURL string) api.Stats {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out api.Stats
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestClientCancelFreesWorker: a client that gives up mid-solve
// cancels its request context, and the engine abandons the solve
// cooperatively — so the next request on a one-worker engine does not
// queue behind the stalled solve, and the abandoned job is counted as
// canceled.
func TestClientCancelFreesWorker(t *testing.T) {
	clientCancelFreesWorker(t, "/v1/allocate", 1)
}

// TestClientCancelFreesWorkerBatch is the same property for /v1/batch:
// the abandoned batch's first job holds the only worker, and its two
// other jobs wait to be accepted when the client gives up.
func TestClientCancelFreesWorkerBatch(t *testing.T) {
	clientCancelFreesWorker(t, "/v1/batch", 3)
}

// clientCancelFreesWorker runs three requests against route on a
// one-worker engine whose every second solve stalls for 300ms: a
// one-job request, then one of jobs jobs whose client gives up after
// 40ms while its first job stalls, then a one-job request that must be
// answered well before the stall would have ended. The given-up
// request's retained trace must keep its spans, the stalled solve's
// noted aborted: its handler returned only after the worker unwound.
func clientCancelFreesWorker(t *testing.T, route string, jobs int) {
	t.Helper()
	inj, err := faults.Parse("delay=300ms:2") // only every 2nd solve stalls
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServerWith(t, engine.Options{Workers: 1, Faults: inj},
		serverOptions{version: "test"})
	post := func(ctx context.Context, first, n int) (*http.Response, error) {
		bodies := make([]string, n)
		for i := range bodies {
			bodies[i] = fmt.Sprintf(`{"pattern": {"offsets": [%d, 0, %d]}, "agu": {"registers": 2, "modifyRange": 1}}`, first, 2*(i+1))
		}
		body := bodies[0]
		if route == "/v1/batch" {
			body = `{"jobs": [` + strings.Join(bodies, ", ") + `]}`
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+route, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Request-Id", fmt.Sprintf("client-cancel-%d", first))
		return http.DefaultClient.Do(req)
	}
	canceled := func() float64 {
		f := scrapeFamilies(t, ts)["rcaserve_engine_canceled_total"]
		if f == nil || len(f.Samples) != 1 {
			t.Fatal("rcaserve_engine_canceled_total missing")
		}
		return f.Samples[0].Value
	}

	// Solve 1 runs at full speed.
	resp, err := post(context.Background(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	before := canceled()

	// Solve 2 stalls for 300ms; its client gives up after 40ms.
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	if resp, err := post(ctx, 3, jobs); err == nil {
		resp.Body.Close()
		t.Fatalf("a client that gave up got status %d", resp.StatusCode)
	}

	// Solve 3 needs the only worker: it answers well before the
	// stalled solve would have ended.
	resp, err = post(context.Background(), 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("next request: status %d, want 200", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed >= 200*time.Millisecond {
		t.Fatalf("next request answered %v after the abandoned one began — the stalled solve kept the worker", elapsed)
	}
	if after := canceled(); after <= before {
		t.Fatalf("rcaserve_engine_canceled_total %v → %v, want it to go up", before, after)
	}

	// The middleware retains the trace after the handler returns,
	// which may be after the next request was answered, so poll.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		var dbg debugRequestsJSON
		getJSON(t, ts.URL+"/debug/requests", &dbg)
		for _, tr := range dbg.Traces {
			if tr.ID == "client-cancel-3" {
				checkAbortedSolve(t, tr)
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no trace for client-cancel-3 in the ring (%d traces)", len(dbg.Traces))
		}
	}
}

// TestSyncPathsShedWhenOverloaded floods a one-worker engine with
// slow solves until the windowed-minimum queue wait stands above the
// shed target, then asserts the synchronous path rejects with 503 +
// Retry-After and counts the shed.
func TestSyncPathsShedWhenOverloaded(t *testing.T) {
	inj, err := faults.Parse("delay=15ms")
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServerWith(t, engine.Options{
		Workers:    1,
		CacheSize:  -1,
		ShedTarget: 5 * time.Millisecond,
		ShedWindow: 20 * time.Millisecond,
		Faults:     inj,
	}, serverOptions{version: "test"})

	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{
				"pattern": {"offsets": [1, 0, 2, %d]},
				"agu": {"registers": 2, "modifyRange": 1}
			}`, i+3)
			resp, err := http.Post(ts.URL+"/v1/allocate", "application/json", strings.NewReader(body))
			if err == nil {
				resp.Body.Close()
			}
		}(i)
	}
	wg.Wait()

	resp, err := http.Post(ts.URL+"/v1/allocate", "application/json", strings.NewReader(`{
		"pattern": {"offsets": [2, 0, 1]},
		"agu": {"registers": 2, "modifyRange": 1}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overloaded sync path: status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", ra)
	}
	if st := statsOf(t, ts.URL); st.Sheds == 0 {
		t.Fatal("sheds counter never ticked")
	}
}

// TestRespDelayFaultStretchesEveryRoute: the armed gray-failure fault
// delays responses on all routes — including /healthz, which is what
// makes the failure gray: probes still pass while latency is up.
func TestRespDelayFaultStretchesEveryRoute(t *testing.T) {
	inj, err := faults.Parse("resp-delay=60ms")
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServerWith(t, engine.Options{Workers: 1},
		serverOptions{version: "test", faults: inj})
	start := time.Now()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delayed healthz: status %d, want 200", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed < 60*time.Millisecond {
		t.Fatalf("healthz answered in %v — resp-delay fault did not fire", elapsed)
	}
	if got := inj.Snapshot().RespDelays; got != 1 {
		t.Fatalf("RespDelays = %d, want 1", got)
	}
}
