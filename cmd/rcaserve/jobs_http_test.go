package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"dspaddr/internal/api"
	"dspaddr/internal/engine"
	"dspaddr/internal/jobs"
)

// doMethod issues a bodyless request and decodes the JSON response.
func doMethod(t *testing.T, method, url string, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s %s response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// waitJobDone polls a job to a terminal state.
func waitJobDone(t *testing.T, base, id string) api.JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var st api.JobStatus
		if status := doMethod(t, http.MethodGet, base+"/v1/jobs/"+id, &st); status != http.StatusOK {
			t.Fatalf("GET job %s: status %d", id, status)
		}
		if jobs.State(st.State).Terminal() {
			return st
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return api.JobStatus{}
}

// TestAsyncSingleJobLifecycle submits one pattern job, polls it done
// and checks the result matches the synchronous answer.
func TestAsyncSingleJobLifecycle(t *testing.T) {
	ts := newTestServer(t, engine.Options{Workers: 2})
	body := `{
		"pattern": {"offsets": [1, 0, 2, -1, 1, 0, -2]},
		"agu": {"registers": 2, "modifyRange": 1}
	}`
	var sub api.SubmitResponse
	if status := do(t, ts.URL+"/v1/jobs", body, &sub); status != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", status)
	}
	if sub.ID == "" || len(sub.IDs) != 1 || sub.IDs[0] != sub.ID {
		t.Fatalf("submit response off: %+v", sub)
	}
	st := waitJobDone(t, ts.URL, sub.ID)
	if st.State != string(jobs.StateDone) {
		t.Fatalf("state %s: %+v", st.State, st)
	}
	if st.Result == nil || len(st.Result.Results) != 1 {
		t.Fatalf("missing result: %+v", st)
	}
	if st.StartedAt == nil || st.FinishedAt == nil || st.QueueWaitMicros < 0 {
		t.Fatalf("lifecycle fields off: %+v", st)
	}
	var sync api.JobResponse
	if status := do(t, ts.URL+"/v1/allocate", body, &sync); status != http.StatusOK {
		t.Fatalf("sync status %d", status)
	}
	if got, want := st.Result.Results[0], sync.Results[0]; got.Cost != want.Cost ||
		got.RegistersUsed != want.RegistersUsed || got.VirtualRegisters != want.VirtualRegisters {
		t.Fatalf("async result %+v differs from sync %+v", got, want)
	}
}

// TestAsyncBatchMatchesSync is the end-to-end acceptance check:
// submit a 1,000-job batch via POST /v1/jobs, poll every job to
// completion and verify each allocation matches the synchronous
// /v1/batch answer for the same payload.
func TestAsyncBatchMatchesSync(t *testing.T) {
	const n = 1000
	ts := newTestServerWith(t, engine.Options{Workers: 8},
		serverOptions{queueCapacity: 2 * n, version: "test"})

	// ~40 distinct shapes repeated across the batch: realistic (DSP
	// programs reuse access shapes) and it exercises the cache.
	rng := rand.New(rand.NewSource(42))
	entries := make([]string, n)
	for i := range entries {
		shape := rng.Intn(40)
		offs := make([]string, 3+shape%5)
		for j := range offs {
			offs[j] = fmt.Sprint((j*7+shape*3)%11 - 5)
		}
		entries[i] = fmt.Sprintf(`{"pattern": {"offsets": [%s]}, "agu": {"registers": 2, "modifyRange": 1}, "report": true}`,
			strings.Join(offs, ","))
	}
	batch := `{"jobs": [` + strings.Join(entries, ",") + `]}`

	var sync api.BatchResponse
	if status := do(t, ts.URL+"/v1/batch", batch, &sync); status != http.StatusOK {
		t.Fatalf("sync batch status %d", status)
	}

	var sub api.SubmitResponse
	if status := do(t, ts.URL+"/v1/jobs", batch, &sub); status != http.StatusAccepted {
		t.Fatalf("async submit status %d, want 202", status)
	}
	if len(sub.IDs) != n {
		t.Fatalf("got %d ids, want %d", len(sub.IDs), n)
	}
	for i, id := range sub.IDs {
		st := waitJobDone(t, ts.URL, id)
		if st.State != string(jobs.StateDone) {
			t.Fatalf("job %d state %s (%s)", i, st.State, st.Error)
		}
		got, want := st.Result.Results[0], sync.Results[i].Results[0]
		if got.Cost != want.Cost || got.RegistersUsed != want.RegistersUsed ||
			got.VirtualRegisters != want.VirtualRegisters || got.Report == "" || got.Report != want.Report {
			t.Fatalf("job %d async %+v differs from sync %+v", i, got, want)
		}
	}

	// The listing pages over everything we just ran.
	var list api.ListResponse
	if status := doMethod(t, http.MethodGet, ts.URL+"/v1/jobs?state=done&limit=10", &list); status != http.StatusOK {
		t.Fatalf("list status %d", status)
	}
	if list.Total != n || len(list.Jobs) != 10 {
		t.Fatalf("list: %d jobs, total %d", len(list.Jobs), list.Total)
	}
}

// TestAsyncQueueFull submits a batch larger than the queue and checks
// the atomic 429 + Retry-After rejection.
func TestAsyncQueueFull(t *testing.T) {
	ts := newTestServerWith(t, engine.Options{Workers: 1},
		serverOptions{queueCapacity: 4, version: "test"})
	entries := make([]string, 8)
	for i := range entries {
		entries[i] = `{"pattern": {"offsets": [1, 0, 2]}, "agu": {"registers": 1, "modifyRange": 1}}`
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"jobs": [`+strings.Join(entries, ",")+`]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// Nothing of the rejected batch is tracked.
	var list api.ListResponse
	doMethod(t, http.MethodGet, ts.URL+"/v1/jobs", &list)
	if list.Total != 0 {
		t.Fatalf("rejected batch left %d jobs behind", list.Total)
	}
}

// TestAsyncCancelQueued parks the executor, queues a second job and
// cancels it before it runs.
func TestAsyncCancelQueued(t *testing.T) {
	release := make(chan struct{})
	gated := func(ctx context.Context, payload any) (any, error) {
		select {
		case <-release:
			return api.JobResponse{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	defer close(release)
	ts := newTestServerWith(t, engine.Options{Workers: 1},
		serverOptions{runners: 1, run: gated, version: "test"})

	job := `{"pattern": {"offsets": [1, 0]}, "agu": {"registers": 1, "modifyRange": 1}}`
	var blocker, queued api.SubmitResponse
	do(t, ts.URL+"/v1/jobs", job, &blocker)
	deadline := time.Now().Add(10 * time.Second)
	for { // wait until the blocker occupies the only runner
		var st api.JobStatus
		doMethod(t, http.MethodGet, ts.URL+"/v1/jobs/"+blocker.ID, &st)
		if st.State == string(jobs.StateRunning) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(time.Millisecond)
	}
	do(t, ts.URL+"/v1/jobs", job, &queued)

	var st api.JobStatus
	if status := doMethod(t, http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, &st); status != http.StatusOK {
		t.Fatalf("cancel status %d", status)
	}
	if st.State != string(jobs.StateCanceled) {
		t.Fatalf("state %s, want canceled", st.State)
	}
	// A second DELETE conflicts with the terminal state.
	if status := doMethod(t, http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil); status != http.StatusConflict {
		t.Fatalf("re-cancel status %d, want 409", status)
	}
}

// TestAsyncEvictionGone finishes a job with a tiny TTL and checks the
// poll degrades to 410 Gone — distinguishable from the 404 an unknown
// ID gets.
func TestAsyncEvictionGone(t *testing.T) {
	ts := newTestServerWith(t, engine.Options{Workers: 1},
		serverOptions{ttl: 20 * time.Millisecond, version: "test"})
	var sub api.SubmitResponse
	do(t, ts.URL+"/v1/jobs", `{"pattern": {"offsets": [1, 0]}, "agu": {"registers": 1, "modifyRange": 1}}`, &sub)
	waitJobDone(t, ts.URL, sub.ID)
	time.Sleep(60 * time.Millisecond)
	if status := doMethod(t, http.MethodGet, ts.URL+"/v1/jobs/"+sub.ID, nil); status != http.StatusGone {
		t.Fatalf("evicted job status %d, want 410", status)
	}
	if status := doMethod(t, http.MethodGet, ts.URL+"/v1/jobs/j-00000000-deadbeef", nil); status != http.StatusNotFound {
		t.Fatalf("unknown job status %d, want 404", status)
	}
}

// TestAsyncSubmitValidation covers the submission-time 400 paths.
func TestAsyncSubmitValidation(t *testing.T) {
	ts := newTestServer(t, engine.Options{Workers: 1})
	cases := []struct {
		name, body string
	}{
		{"empty submission", `{}`},
		{"empty jobs array", `{"jobs": []}`},
		{"inline and array", `{"pattern": {"offsets": [1]}, "agu": {"registers": 1, "modifyRange": 1}, "jobs": [{"loop": "x", "agu": {"registers": 1, "modifyRange": 1}}]}`},
		{"entry with both", `{"jobs": [{"pattern": {"offsets": [1]}, "loop": "for", "agu": {"registers": 1, "modifyRange": 1}}]}`},
		{"entry with neither", `{"jobs": [{"agu": {"registers": 1, "modifyRange": 1}}]}`},
		{"unknown field", `{"priroity": 3}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if status := do(t, ts.URL+"/v1/jobs", tc.body, nil); status != http.StatusBadRequest {
				t.Errorf("status %d, want 400", status)
			}
		})
	}
	// Semantic failures are per-job, reported on the job itself.
	var sub api.SubmitResponse
	if status := do(t, ts.URL+"/v1/jobs", `{"loop": "while (1) {}", "agu": {"registers": 1, "modifyRange": 1}}`, &sub); status != http.StatusAccepted {
		t.Fatalf("bad-loop submit status %d, want 202 (fails async)", status)
	}
	st := waitJobDone(t, ts.URL, sub.ID)
	if st.State != string(jobs.StateFailed) || st.Error == "" {
		t.Fatalf("bad loop job: %+v", st)
	}
}

// TestAsyncPriorityOverturn parks the single executor, submits a bulk
// job then an urgent one, and checks the urgent job runs first.
func TestAsyncPriorityOverturn(t *testing.T) {
	release := make(chan struct{})
	started := make(chan string, 8)
	gated := func(ctx context.Context, payload any) (any, error) {
		started <- payload.(api.Job).Pattern.Array
		select {
		case <-release:
			return api.JobResponse{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	defer close(release)
	ts := newTestServerWith(t, engine.Options{Workers: 1},
		serverOptions{runners: 1, run: gated, version: "test"})

	submit := func(array string, prio int) {
		body := fmt.Sprintf(`{"pattern": {"array": %q, "offsets": [1, 0]}, "agu": {"registers": 1, "modifyRange": 1}, "priority": %d}`, array, prio)
		if status := do(t, ts.URL+"/v1/jobs", body, nil); status != http.StatusAccepted {
			t.Fatalf("submit %s: status %d", array, status)
		}
	}
	submit("blocker", 0)
	if got := <-started; got != "blocker" {
		t.Fatalf("first started %q", got)
	}
	submit("bulk", 0)
	submit("urgent", 9)
	release <- struct{}{} // let the blocker finish; next pop decides
	if got := <-started; got != "urgent" {
		t.Fatalf("after blocker, %q started; want urgent to overtake bulk", got)
	}
	release <- struct{}{}
	<-started // bulk
}

// promLine matches one Prometheus text-format sample.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? [-+0-9.eE]+(e[-+][0-9]+)?$`)

// TestMetricsEndpoint runs a small workload and checks /metrics is
// well-formed Prometheus text whose counters reflect the run.
func TestMetricsEndpoint(t *testing.T) {
	ts := newTestServer(t, engine.Options{Workers: 2})
	// The repeated pattern is submitted only once the first copy is
	// done: two identical jobs running at once may both miss the cache
	// and both solve, and the run must produce a cache hit.
	const job = `{"pattern": {"offsets": [1, 0, 2]}, "agu": {"registers": 1, "modifyRange": 1}}`
	for _, body := range []string{
		`{"jobs": [` + job + `, {"loop": "bad source", "agu": {"registers": 1, "modifyRange": 1}}]}`,
		`{"jobs": [` + job + `]}`,
	} {
		var sub api.SubmitResponse
		do(t, ts.URL+"/v1/jobs", body, &sub)
		for _, id := range sub.IDs {
			waitJobDone(t, ts.URL, id)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	samples := map[string]float64{}
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		line := scanner.Text()
		if line == "" || strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("malformed metrics line: %q", line)
		}
		// No exported label value contains a space, so the last field
		// is the value and the rest is the sample name.
		cut := strings.LastIndex(line, " ")
		var value float64
		fmt.Sscanf(line[cut+1:], "%g", &value)
		samples[line[:cut]] = value
	}
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}

	checks := map[string]float64{
		"rcaserve_jobs_submitted_total":                3,
		`rcaserve_jobs_finished_total{state="done"}`:   2,
		`rcaserve_jobs_finished_total{state="failed"}`: 1,
		"rcaserve_queue_depth":                         0,
		"rcaserve_jobs_running":                        0,
		"rcaserve_store_size":                          3,
		// All three jobs were dispatched and ran (the bad loop fails
		// inside its run), so each stage histogram holds three.
		"rcaserve_job_run_duration_seconds_count":                    3,
		`rcaserve_job_queue_wait_duration_seconds_bucket{le="+Inf"}`: 3,
	}
	for name, want := range checks {
		got, ok := samples[name]
		if !ok {
			t.Errorf("metric %s missing", name)
		} else if got != want {
			t.Errorf("metric %s = %g, want %g", name, got, want)
		}
	}
	for _, name := range []string{
		"rcaserve_engine_cache_hits_total", "rcaserve_engine_cache_misses_total",
		"rcaserve_engine_canceled_total", "rcaserve_engine_cache_entries",
		"rcaserve_engine_cache_capacity", "rcaserve_engine_cache_shards",
		"rcaserve_engine_solve_duration_seconds_count", "rcaserve_job_run_duration_seconds_sum",
		"rcaserve_store_evictions_total", "rcaserve_jobs_rejected_total",
		"rcaserve_http_requests_total", "rcaserve_uptime_seconds",
		`rcaserve_build_info{version="test"}`,
	} {
		if _, ok := samples[name]; !ok {
			t.Errorf("metric %s missing", name)
		}
	}
	for name := range samples {
		if strings.Contains(name, "{quantile=") {
			t.Errorf("summary-style sample %s exported; percentiles come from the histograms", name)
		}
	}
	if samples["rcaserve_engine_cache_hits_total"] < 1 {
		t.Error("repeated pattern produced no engine cache hit")
	}
	if samples["rcaserve_engine_cache_capacity"] <= 0 {
		t.Error("cache capacity gauge not positive")
	}
	if n := samples["rcaserve_engine_cache_shards"]; n < 1 || float64(int(n)) != n || int(n)&(int(n)-1) != 0 {
		t.Errorf("cache shard gauge %g is not a positive power of two", n)
	}
	// /v1/stats reads its percentiles from the same histograms.
	st := getStats(t, ts)
	if st.SolveP50Micros <= 0 || st.AsyncJobs.QueueWaitP50Micros <= 0 || st.AsyncJobs.RunP99Micros <= 0 {
		t.Errorf("/v1/stats percentiles zero after solves and jobs: solveP50 %g queueWaitP50 %g runP99 %g",
			st.SolveP50Micros, st.AsyncJobs.QueueWaitP50Micros, st.AsyncJobs.RunP99Micros)
	}
}

// TestJobsMethodNotAllowed checks verb enforcement on the async
// endpoints.
func TestJobsMethodNotAllowed(t *testing.T) {
	ts := newTestServer(t, engine.Options{Workers: 1})
	if status := doMethod(t, http.MethodDelete, ts.URL+"/v1/jobs", nil); status != http.StatusMethodNotAllowed {
		t.Errorf("DELETE /v1/jobs: status %d", status)
	}
	if status := do(t, ts.URL+"/v1/jobs/some-id", `{}`, nil); status != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/jobs/{id}: status %d", status)
	}
	if status := do(t, ts.URL+"/metrics", `{}`, nil); status != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics: status %d", status)
	}
}
