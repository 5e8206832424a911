package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dspaddr/internal/deadline"
)

// TestGatewayDeadlineHeaderDecrementsPerHop asserts the budget rides
// the hop: the node sees an X-Deadline-Ms no larger than the client's
// and still positive, because the gateway recomputes it from the
// remaining context budget at send time.
func TestGatewayDeadlineHeaderDecrementsPerHop(t *testing.T) {
	a := newFakeNode("n1")
	defer a.srv.Close()
	var seen atomic.Value
	a.handler = func(w http.ResponseWriter, r *http.Request) bool {
		if r.URL.Path == "/v1/allocate" {
			seen.Store(r.Header.Get(deadline.Header))
		}
		return false
	}
	_, srv := newTestGateway(t, a)

	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/allocate", strings.NewReader(allocBody))
	req.Header.Set(deadline.Header, "5000")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	raw, _ := seen.Load().(string)
	ms, err := strconv.Atoi(raw)
	if err != nil {
		t.Fatalf("node saw %s %q, want an integer", deadline.Header, raw)
	}
	if ms <= 0 || ms > 5000 {
		t.Fatalf("forwarded budget %dms, want in (0, 5000]", ms)
	}
}

// TestGatewaySpentBudgetIs504 asserts a request arriving with no
// budget left is answered 504 at the edge — the node is never asked
// to do work the client has already given up on.
func TestGatewaySpentBudgetIs504(t *testing.T) {
	a := newFakeNode("n1")
	defer a.srv.Close()
	gw, srv := newTestGateway(t, a)

	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/allocate", strings.NewReader(allocBody))
	req.Header.Set(deadline.Header, "0")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	if al, _ := a.counts(); al != 0 {
		t.Fatal("a spent budget still reached the node")
	}
	if got := gw.deadlineExpired.Load(); got != 1 {
		t.Fatalf("deadlineExpired = %d, want 1", got)
	}
}

// TestGatewayDeadlineExpiresMidFlight: the budget runs out while the
// node is still working — the gateway answers 504 (not 503), the
// in-flight hop is canceled, and the node is NOT penalized in health
// accounting (it did nothing wrong).
func TestGatewayDeadlineExpiresMidFlight(t *testing.T) {
	a := newFakeNode("n1")
	defer a.srv.Close()
	canceled := make(chan struct{}, 1)
	a.handler = func(w http.ResponseWriter, r *http.Request) bool {
		if r.URL.Path != "/v1/allocate" {
			return false
		}
		// Drain the body like a real node would: only then does the
		// server's background read detect a dropped peer and cancel
		// the request context.
		io.Copy(io.Discard, r.Body) //nolint:errcheck // drain
		select {
		case <-r.Context().Done():
			canceled <- struct{}{}
		case <-time.After(5 * time.Second):
		}
		return true
	}
	gw, srv := newTestGateway(t, a)

	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/allocate", strings.NewReader(allocBody))
	req.Header.Set(deadline.Header, "80")
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("504 took %v — the budget did not bound the hop", elapsed)
	}
	select {
	case <-canceled:
	case <-time.After(2 * time.Second):
		t.Fatal("node-side handler never saw the cancellation")
	}
	if f := gw.fleet.Member("n1").Fails(); f != 0 {
		t.Fatalf("deadline expiry charged the node %d health failures", f)
	}
}

// TestGatewayClientDisconnectCancelsUpstream is the satellite fix
// proper: a client that walks away mid-request must cancel the
// forwarded hop, so the node-side work actually stops instead of
// running to completion for nobody.
func TestGatewayClientDisconnectCancelsUpstream(t *testing.T) {
	a := newFakeNode("n1")
	defer a.srv.Close()
	started := make(chan struct{}, 1)
	canceled := make(chan struct{}, 1)
	a.handler = func(w http.ResponseWriter, r *http.Request) bool {
		if r.URL.Path != "/v1/allocate" {
			return false
		}
		io.Copy(io.Discard, r.Body) //nolint:errcheck // drain — see above
		started <- struct{}{}
		select {
		case <-r.Context().Done():
			canceled <- struct{}{}
		case <-time.After(5 * time.Second):
		}
		return true
	}
	gw, srv := newTestGateway(t, a)

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/allocate", strings.NewReader(allocBody))
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errCh <- err
	}()
	select {
	case <-started:
	case <-time.After(2 * time.Second):
		t.Fatal("request never reached the node")
	}
	cancel() // the client hangs up
	select {
	case <-canceled:
	case <-time.After(2 * time.Second):
		t.Fatal("node-side handler kept running after the client disconnected")
	}
	if err := <-errCh; err == nil {
		t.Fatal("canceled client request returned a response")
	}
	// The node is innocent: the aborted hop must stay out of health
	// and breaker accounting.
	if f := gw.fleet.Member("n1").Fails(); f != 0 {
		t.Fatalf("client disconnect charged the node %d health failures", f)
	}
	if samples, failed := gw.fleet.Member("n1").BreakerWindow(); failed != 0 {
		t.Fatalf("client disconnect fed the breaker %d/%d failures", failed, samples)
	}
}

// TestGatewaySlowJobRequestsReachOwnerOnce: a slow job poll and a
// slow cancel each go to the owning node exactly once — job state is
// single-homed, so the gateway never sends a second copy of either.
func TestGatewaySlowJobRequestsReachOwnerOnce(t *testing.T) {
	a := newFakeNode("n1")
	defer a.srv.Close()
	var gets, deletes atomic.Int32
	a.handler = func(w http.ResponseWriter, r *http.Request) bool {
		if !strings.HasPrefix(r.URL.Path, "/v1/jobs/") {
			return false
		}
		time.Sleep(60 * time.Millisecond)
		if r.Method == http.MethodDelete {
			deletes.Add(1)
			w.WriteHeader(http.StatusNoContent)
			return true
		}
		gets.Add(1)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"id":"j-n1-abcd0123-00000001","state":"done"}`)
		return true
	}
	_, srv := newTestGateway(t, a)

	for _, c := range []struct {
		method string
		want   int
		count  *atomic.Int32
	}{
		{http.MethodGet, http.StatusOK, &gets},
		{http.MethodDelete, http.StatusNoContent, &deletes},
	} {
		req, _ := http.NewRequest(c.method, srv.URL+"/v1/jobs/j-n1-abcd0123-00000001", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Fatalf("%s: status %d, want %d", c.method, resp.StatusCode, c.want)
		}
		if n := c.count.Load(); n != 1 {
			t.Fatalf("%s went out %d times, want exactly 1", c.method, n)
		}
	}
}

// TestGatewayRetryHonorsRetryAfter: an idempotent 503 retries on the
// next replica only after honoring the node's Retry-After (capped) —
// and when the retry also answers 503, that LAST node answer is what
// the client sees.
func TestGatewayRetryHonorsRetryAfter(t *testing.T) {
	mk := func(name string, hits *atomic.Int32) *fakeNode {
		n := newFakeNode(name)
		n.handler = func(w http.ResponseWriter, r *http.Request) bool {
			if r.URL.Path != "/v1/allocate" {
				return false
			}
			hits.Add(1)
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":"draining"}`)
			return true
		}
		return n
	}
	var hitsA, hitsB atomic.Int32
	a, b := mk("n1", &hitsA), mk("n2", &hitsB)
	defer a.srv.Close()
	defer b.srv.Close()
	_, srv := newTestGateway(t, a, b)

	start := time.Now()
	resp, err := http.Post(srv.URL+"/v1/allocate", "application/json", strings.NewReader(allocBody))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain
	resp.Body.Close()
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want the node's 503 passed through", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After %q, want the node's own \"1\"", ra)
	}
	if got := hitsA.Load() + hitsB.Load(); got != 2 {
		t.Fatalf("%d attempts total, want exactly 2 (primary + one retry)", got)
	}
	// The retry waited the capped Retry-After (500ms), not the bare
	// jittered backoff (< 20ms at attempt 1).
	if elapsed < retryAfterCap {
		t.Fatalf("retry after %v, want >= %v (the honored Retry-After)", elapsed, retryAfterCap)
	}
}
