package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dspaddr/internal/api"
)

// TestGatewayClientDisconnectCancelsUpstream: a client that walks
// away mid-request must cancel the forwarded hop, so the node-side work actually stops instead of
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

// ownedAllocate returns an allocate body whose ring owner in fleet is
// the named member.
func ownedAllocate(t *testing.T, fleet *Fleet, owner string) string {
	t.Helper()
	for i := 0; i < 256; i++ {
		body := fmt.Sprintf(`{"pattern":{"offsets":[%d,0,2]},"agu":{"registers":1,"modifyRange":1}}`, i)
		var job api.Job
		if err := json.Unmarshal([]byte(body), &job); err != nil {
			t.Fatal(err)
		}
		if fleet.Replicas(routeKeyOf(&job))[0].Name == owner {
			return body
		}
	}
	t.Fatalf("no allocate body owned by %s", owner)
	return ""
}

// TestGatewayAllocateLeavesOtherBreakersAlone: routing an allocate
// consults breakers only until it finds its node. An expired-open
// breaker on a node the request never reaches must stay open, with
// its half-open probe slot unspent.
func TestGatewayAllocateLeavesOtherBreakersAlone(t *testing.T) {
	a, b := newFakeNode("n1"), newFakeNode("n2")
	defer a.srv.Close()
	defer b.srv.Close()
	const openFor = 50 * time.Millisecond
	fleet, err := NewFleet([]Member{
		{Name: "n1", URL: a.srv.URL},
		{Name: "n2", URL: b.srv.URL},
	}, FleetOptions{
		ProbeInterval: time.Hour,
		Breaker:       BreakerOptions{Window: 4, MinSamples: 2, ErrRate: 0.5, OpenFor: openFor},
	})
	if err != nil {
		t.Fatal(err)
	}
	gw, err := New(Options{Fleet: fleet, Version: "test"})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(gw.Handler())
	defer func() { srv.Close(); gw.Close() }()

	n2 := fleet.Member("n2")
	now := time.Now()
	n2.brk.record(false, time.Millisecond, now)
	n2.brk.record(false, time.Millisecond, now)
	if n2.BreakerState() != BreakerOpen {
		t.Fatal("n2 breaker did not open")
	}
	time.Sleep(2 * openFor) // past OpenFor: the next allow would probe

	resp, err := http.Post(srv.URL+"/v1/allocate", "application/json", strings.NewReader(ownedAllocate(t, fleet, "n1")))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 from n1", resp.StatusCode)
	}
	if al, _ := b.counts(); al != 0 {
		t.Fatalf("n2 received %d allocates, want 0", al)
	}
	if st := n2.BreakerState(); st != BreakerOpen {
		t.Fatalf("n2 breaker %v after an allocate it never saw, want open", st)
	}
}
