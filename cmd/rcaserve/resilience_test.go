package main

import (
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

// Node-side resilience behavior: the propagated deadline budget, the
// adaptive load-shedding policy on the synchronous paths, and the
// gray-failure response faults the soak harness arms.

func postWithDeadline(t *testing.T, url, budgetMS, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Deadline-Ms", budgetMS)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

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

// TestDeadlineSpentOnArrivalIs504: a request whose propagated budget
// is already exhausted is refused at the middleware with a counted
// 504 — the handler (and the engine) never see it.
func TestDeadlineSpentOnArrivalIs504(t *testing.T) {
	ts := newTestServer(t, engine.Options{Workers: 2})
	resp := postWithDeadline(t, ts.URL+"/v1/allocate", "0", `{
		"pattern": {"offsets": [1, 0, 2]},
		"agu": {"registers": 2, "modifyRange": 1}
	}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("spent budget: status %d, want 504", resp.StatusCode)
	}
	st := statsOf(t, ts.URL)
	if st.DeadlineExpired != 1 {
		t.Fatalf("deadlineExpired = %d, want 1", st.DeadlineExpired)
	}
	if st.Stats.Jobs != 0 {
		t.Fatalf("engine ran %d jobs for a spent-budget request", st.Stats.Jobs)
	}
}

// TestDeadlineBudgetCancelsSolve: a live budget becomes a context
// deadline, so a solve that outlasts it is abandoned — the caller
// gets a 504 in roughly the budget, not the solve's full latency.
func TestDeadlineBudgetCancelsSolve(t *testing.T) {
	inj, err := faults.Parse("delay=300ms")
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServerWith(t, engine.Options{Workers: 1, CacheSize: -1, Faults: inj},
		serverOptions{version: "test"})
	start := time.Now()
	resp := postWithDeadline(t, ts.URL+"/v1/allocate", "40", `{
		"pattern": {"offsets": [1, 0, 2, -1]},
		"agu": {"registers": 2, "modifyRange": 1}
	}`)
	resp.Body.Close()
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired budget: status %d, want 504", resp.StatusCode)
	}
	if elapsed >= 300*time.Millisecond {
		t.Fatalf("answer took %v — the budget deadline did not cancel the solve", elapsed)
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

// TestBlackholeFaultDropsConnection: a blackholed request is held
// until its context dies and then the connection is aborted — the
// client sees a transport error, never a synthesized status.
func TestBlackholeFaultDropsConnection(t *testing.T) {
	inj, err := faults.Parse("blackhole=1")
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServerWith(t, engine.Options{Workers: 1},
		serverOptions{version: "test", faults: inj})
	client := &http.Client{Timeout: 200 * time.Millisecond}
	resp, err := client.Get(ts.URL + "/healthz")
	if err == nil {
		resp.Body.Close()
		t.Fatalf("blackholed request got an answer: status %d", resp.StatusCode)
	}
	if got := inj.Snapshot().Blackholes; got != 1 {
		t.Fatalf("Blackholes = %d, want 1", got)
	}
}
