// HTTP-level durability tests: the WAL threaded end to end through
// the serving layer — restart recovery, the stats/metrics surfaces
// and the deterministic 503 during drain.

package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dspaddr/internal/api"
	"dspaddr/internal/engine"
	"dspaddr/internal/jobs"
	"dspaddr/internal/wal"
)

// newWALServer opens (or reopens) a WAL in dir and builds a test
// server over it, returning the httptest server and the *server so
// tests can drive drain/close ordering directly.
func newWALServer(t *testing.T, dir string, sopts serverOptions) (*httptest.Server, *server) {
	t.Helper()
	log, rep, err := wal.Open(dir, wal.Options{Fsync: wal.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	sopts.wal = log
	sopts.recovered = rep.Jobs
	if sopts.obs == nil {
		sopts.obs = newObservability(nil, -1, 0)
	}
	if sopts.version == "" {
		sopts.version = "test"
	}
	eng := engine.New(engine.Options{Workers: 2})
	s := newServer(eng, sopts)
	ts := httptest.NewServer(s.handler())
	t.Cleanup(func() {
		ts.Close()
		s.close()
		eng.Close()
	})
	return ts, s
}

const walSubmitBody = `{
	"pattern": {"offsets": [1, 0, 2, -1, 1, 0, -2]},
	"agu": {"registers": 2, "modifyRange": 1},
	"report": true
}`

// TestWALRestartPreservesResults is the HTTP durability loop: submit
// against one server instance, let it finish, shut that instance
// down, then boot a second one over the same WAL directory — the same
// job ID must answer with the identical result, served from replay.
func TestWALRestartPreservesResults(t *testing.T) {
	dir := t.TempDir()
	ts1, s1 := newWALServer(t, dir, serverOptions{})

	var sub api.SubmitResponse
	if code := do(t, ts1.URL+"/v1/jobs", walSubmitBody, &sub); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	first := waitJobDone(t, ts1.URL, sub.ID)
	if first.State != string(jobs.StateDone) || first.Result == nil || len(first.Result.Results) != 1 {
		t.Fatalf("first instance outcome malformed: %+v", first)
	}

	// Clean shutdown: the manager closes (and syncs) the log.
	ts1.Close()
	s1.close()

	ts2, _ := newWALServer(t, dir, serverOptions{})
	var second api.JobStatus
	if code := doMethod(t, http.MethodGet, ts2.URL+"/v1/jobs/"+sub.ID, &second); code != http.StatusOK {
		t.Fatalf("recovered job lookup: status %d", code)
	}
	if second.State != string(jobs.StateDone) || second.Result == nil || len(second.Result.Results) != 1 {
		t.Fatalf("recovered job not done with a result: %+v", second)
	}
	a, b := first.Result.Results[0], second.Result.Results[0]
	if a.Cost != b.Cost || a.RegistersUsed != b.RegistersUsed || a.Report == "" || a.Report != b.Report {
		t.Errorf("recovered result drifted:\n first: %+v\nsecond: %+v", a, b)
	}
	if second.Priority != first.Priority || second.TraceID != first.TraceID {
		t.Errorf("recovered metadata drifted: %+v vs %+v", second, first)
	}

	stats := getStats(t, ts2)
	if stats.WAL == nil {
		t.Fatal("stats missing wal block with durability on")
	}
	if stats.WAL.Replay.JobsTerminal != 1 || stats.WAL.Replay.JobsRequeued != 0 {
		t.Errorf("replay stats %+v, want exactly 1 terminal job", stats.WAL.Replay)
	}
	if stats.AsyncJobs.Recovered != 1 {
		t.Errorf("recovered counter = %d, want 1", stats.AsyncJobs.Recovered)
	}
	if stats.WAL.Replay.TornBytes != 0 || stats.WAL.Replay.SegmentsDropped != 0 {
		t.Errorf("clean shutdown reported damage: %+v", stats.WAL.Replay)
	}
}

// TestWALMetricsExposed: the rcaserve_wal_* families appear exactly
// when durability is on, and never on a plain server.
func TestWALMetricsExposed(t *testing.T) {
	ts, _ := newWALServer(t, t.TempDir(), serverOptions{})
	var sub api.SubmitResponse
	if code := do(t, ts.URL+"/v1/jobs", walSubmitBody, &sub); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	waitJobDone(t, ts.URL, sub.ID)

	// The finish record is coalesced in user space until the flusher
	// tick (~100ms) lands it, so poll for both records to be appended.
	deadline := time.Now().Add(10 * time.Second)
	body := getBody(t, ts.URL+"/metrics")
	for !strings.Contains(body, "rcaserve_wal_records_appended_total 2\n") && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		body = getBody(t, ts.URL+"/metrics")
	}
	for _, family := range []string{
		"rcaserve_wal_segments ",
		"rcaserve_wal_size_bytes",
		"rcaserve_wal_fsyncs_total",
		"rcaserve_jobs_recovered_total",
		"rcaserve_wal_append_duration_seconds_bucket",
		"rcaserve_wal_replay_duration_seconds_count",
	} {
		if !strings.Contains(body, family) {
			t.Errorf("metrics missing %q", family)
		}
	}
	// Exactly the submit and finish records have been appended.
	if !strings.Contains(body, "rcaserve_wal_records_appended_total 2\n") {
		t.Errorf("expected 2 appended records, metrics line: %q",
			metricLine(body, "rcaserve_wal_records_appended_total"))
	}

	ts2 := newTestServer(t, engine.Options{Workers: 1})
	if body2 := getBody(t, ts2.URL+"/metrics"); strings.Contains(body2, "rcaserve_wal_") {
		t.Error("wal metric families leaked into a non-durable server")
	}
}

// TestSubmitDuringDrainHTTP: once the manager starts draining, job
// submission answers 503 with a Retry-After header — a deterministic
// refusal, not a race with shutdown internals.
func TestSubmitDuringDrainHTTP(t *testing.T) {
	release := make(chan struct{})
	ts, s := newWALServer(t, t.TempDir(), serverOptions{
		runners: 1,
		run: func(ctx context.Context, payload any) (any, error) {
			select {
			case <-release:
			case <-ctx.Done():
			}
			return api.JobResponse{}, nil
		},
	})

	var sub api.SubmitResponse
	if code := do(t, ts.URL+"/v1/jobs", walSubmitBody, &sub); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	// Wait until the job occupies the single runner, so drain cannot
	// complete before we probe it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st api.JobStatus
		doMethod(t, http.MethodGet, ts.URL+"/v1/jobs/"+sub.ID, &st)
		if st.State == string(jobs.StateRunning) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.drain(context.Background())
	}()

	got503 := false
	for !got503 && time.Now().Before(deadline) {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(walSubmitBody))
		if err != nil {
			t.Fatal(err)
		}
		code, retry := resp.StatusCode, resp.Header.Get("Retry-After")
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		switch code {
		case http.StatusAccepted:
			time.Sleep(time.Millisecond) // drain not engaged yet
		case http.StatusServiceUnavailable:
			got503 = true
			if retry != "1" {
				t.Errorf("503 without Retry-After: %q", retry)
			}
		default:
			t.Fatalf("submit during drain: status %d", code)
		}
	}
	if !got503 {
		t.Fatal("never observed a 503 while draining")
	}

	close(release)
	wg.Wait()
}

// getBody fetches a URL and returns the response body as a string.
func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// metricLine extracts one sample line from exposition text.
func metricLine(body, name string) string {
	for _, l := range strings.Split(body, "\n") {
		if strings.HasPrefix(l, name) {
			return l
		}
	}
	return ""
}
