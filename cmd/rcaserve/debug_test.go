package main

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"dspaddr/internal/api"
	"dspaddr/internal/engine"
	"dspaddr/internal/faults"
	"dspaddr/internal/jobs"
)

// TestDebugSoakHiddenByDefault: without -faults the endpoint does not
// exist — chaos introspection is never part of a production surface.
func TestDebugSoakHiddenByDefault(t *testing.T) {
	ts := newTestServer(t, engine.Options{Workers: 2})
	resp, err := http.Get(ts.URL + "/debug/soak")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/soak without faults: status %d, want 404", resp.StatusCode)
	}
}

// TestDebugSoakReportsAndRearms: with an armed injector the endpoint
// reports process observables and accepts a live re-arm.
func TestDebugSoakReportsAndRearms(t *testing.T) {
	inj, err := faults.Parse("none")
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServerWith(t, engine.Options{Workers: 2, Faults: inj},
		serverOptions{version: "test", faults: inj})

	var dbg debugSoakJSON
	if status := get(t, ts.URL+"/debug/soak", &dbg); status != http.StatusOK {
		t.Fatalf("GET /debug/soak: %d", status)
	}
	if dbg.Goroutines < 1 {
		t.Errorf("goroutines %d", dbg.Goroutines)
	}
	if dbg.Faults.Spec != "none" {
		t.Errorf("spec %q, want none", dbg.Faults.Spec)
	}

	var st faults.Stats
	if status := do(t, ts.URL+"/debug/soak", `{"faults":"error=1"}`, &st); status != http.StatusOK {
		t.Fatalf("POST /debug/soak: %d", status)
	}
	if st.Spec != "error=1" {
		t.Errorf("rearmed spec %q", st.Spec)
	}
	// The engine shares the injector: the next solve must fail injected.
	var resp api.JobResponse
	status := do(t, ts.URL+"/v1/allocate", `{
		"pattern": {"offsets": [5, 3, 4]},
		"agu": {"registers": 1, "modifyRange": 1}
	}`, &resp)
	if status != http.StatusUnprocessableEntity || !strings.Contains(resp.Error, "injected") {
		t.Fatalf("status %d error %q, want injected 422", status, resp.Error)
	}
	if status := do(t, ts.URL+"/debug/soak", `{"faults":"garbage"}`, nil); status != http.StatusBadRequest {
		t.Fatalf("bad spec accepted: %d", status)
	}
}

// TestServerDrainResolvesJobs: the satellite fix end to end at the
// server layer — after drain, every submitted async job is terminal
// (never stuck queued/running) and the aborted ones carry a reason.
func TestServerDrainResolvesJobs(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	gate := func(ctx context.Context, payload any) (any, error) {
		select {
		case <-release:
			return payload, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	eng := engine.New(engine.Options{Workers: 2})
	s := newServer(eng, serverOptions{version: "test", run: gate, runners: 1})
	t.Cleanup(func() {
		once.Do(func() { close(release) })
		s.close()
		eng.Close()
	})

	var ids []string
	for i := 0; i < 3; i++ {
		id, err := s.jobs.Submit(i, 0)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	s.drain(ctx) // gate never released inside the window: jobs abort

	for _, id := range ids {
		st, err := s.jobs.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if !st.State.Terminal() {
			t.Fatalf("job %s stuck in %s after drain", id, st.State)
		}
		if st.State == jobs.StateCanceled && st.Err == nil {
			t.Errorf("job %s aborted without a reason", id)
		}
	}
}

// get GETs a URL and decodes the JSON response into out.
func get(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp.StatusCode
}
