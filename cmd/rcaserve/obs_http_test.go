// Tests for the observability surfaces: /metrics exposition hygiene
// (every family documented and typed, histogram invariants hold),
// trace ID propagation through sync requests and async jobs, and the
// /debug/requests slow-trace ring.

package main

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"dspaddr/internal/api"
	"dspaddr/internal/engine"
	"dspaddr/internal/faults"
	"dspaddr/internal/obs"
)

// scrapeFamilies fetches and parses /metrics.
func scrapeFamilies(t *testing.T, ts *httptest.Server) map[string]*obs.Family {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	fams, err := obs.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("parsing exposition: %v", err)
	}
	return fams
}

// TestMetricsExpositionHygiene drives a few requests through the
// server, scrapes /metrics and checks structural invariants over the
// whole exposition: every family carries HELP and TYPE, histogram
// buckets are cumulative and monotone, the +Inf bucket equals _count,
// and the families this PR added are present.
func TestMetricsExpositionHygiene(t *testing.T) {
	ts := newTestServer(t, engine.Options{Workers: 2})

	okJob := `{"pattern": {"offsets": [1, 0, 2, -1]}, "agu": {"registers": 2, "modifyRange": 1}}`
	if status := do(t, ts.URL+"/v1/allocate", okJob, nil); status != http.StatusOK {
		t.Fatalf("allocate status %d", status)
	}
	// A failing job exercises a second status label.
	if status := do(t, ts.URL+"/v1/allocate", `{"agu": {"registers": 1, "modifyRange": 1}}`, nil); status != http.StatusUnprocessableEntity {
		t.Fatalf("bad allocate status %d", status)
	}
	// An async round trip populates the queue-wait and run histograms.
	var sub api.SubmitResponse
	if status := do(t, ts.URL+"/v1/jobs", okJob, &sub); status != http.StatusAccepted {
		t.Fatalf("submit status %d", status)
	}
	waitForJobDone(t, ts, sub.ID)

	fams := scrapeFamilies(t, ts)
	for name, fam := range fams {
		if fam.Help == "" {
			t.Errorf("family %s has no HELP", name)
		}
		if fam.Type == "" {
			t.Errorf("family %s has no TYPE", name)
		}
		if len(fam.Samples) == 0 {
			t.Errorf("family %s has no samples", name)
		}
		if fam.Type == "histogram" {
			checkHistogramFamily(t, fam)
		}
	}

	for _, want := range []string{
		"rcaserve_http_requests_total",
		"rcaserve_http_route_requests_total",
		"rcaserve_http_request_duration_seconds",
		"rcaserve_job_queue_wait_duration_seconds",
		"rcaserve_job_run_duration_seconds",
		"rcaserve_engine_solve_duration_seconds",
		"rcaserve_goroutines",
		"rcaserve_gc_pause_seconds_total",
		"rcaserve_heap_bytes",
	} {
		if fams[want] == nil {
			t.Errorf("family %s missing from /metrics", want)
		}
	}

	// The by-route counter saw both outcomes of /v1/allocate.
	routes := map[string]bool{}
	if fam := fams["rcaserve_http_route_requests_total"]; fam != nil {
		for _, s := range fam.Samples {
			routes[s.Labels["route"]+" "+s.Labels["status"]] = true
		}
	}
	for _, want := range []string{"/v1/allocate 200", "/v1/allocate 422", "/v1/jobs 202"} {
		if !routes[want] {
			t.Errorf("no route counter sample for %q (got %v)", want, routes)
		}
	}

	// The solve histogram observed the cache-miss solves.
	if n := obs.SumFamily(fams, "rcaserve_engine_solve_duration_seconds"); n < 1 {
		t.Errorf("solve histogram count %v, want >= 1", n)
	}
}

// checkHistogramFamily asserts bucket monotonicity and +Inf == _count
// for every label combination of one histogram family.
func checkHistogramFamily(t *testing.T, fam *obs.Family) {
	t.Helper()
	type bucket struct {
		le string
		v  float64
	}
	buckets := map[string][]bucket{} // non-le label signature -> buckets
	counts := map[string]float64{}
	sums := map[string]bool{}
	for _, s := range fam.Samples {
		sig := labelSignature(s.Labels)
		switch {
		case strings.HasSuffix(s.Name, "_bucket"):
			buckets[sig] = append(buckets[sig], bucket{le: s.Labels["le"], v: s.Value})
		case strings.HasSuffix(s.Name, "_count"):
			counts[sig] = s.Value
		case strings.HasSuffix(s.Name, "_sum"):
			if s.Value < 0 {
				t.Errorf("%s%v _sum negative: %v", fam.Name, s.Labels, s.Value)
			}
			sums[sig] = true
		}
	}
	for sig, bs := range buckets {
		sort.Slice(bs, func(i, j int) bool { return leValue(t, bs[i].le) < leValue(t, bs[j].le) })
		prev := -1.0
		for _, b := range bs {
			if b.v < prev {
				t.Errorf("%s{%s}: bucket le=%s value %v below previous %v (not cumulative)", fam.Name, sig, b.le, b.v, prev)
			}
			prev = b.v
		}
		last := bs[len(bs)-1]
		if last.le != "+Inf" {
			t.Errorf("%s{%s}: last bucket le=%s, want +Inf", fam.Name, sig, last.le)
		}
		if c, ok := counts[sig]; !ok || c != last.v {
			t.Errorf("%s{%s}: +Inf bucket %v != _count %v", fam.Name, sig, last.v, c)
		}
		if !sums[sig] {
			t.Errorf("%s{%s}: no _sum sample", fam.Name, sig)
		}
	}
	if len(buckets) == 0 {
		t.Errorf("%s: histogram family has no _bucket samples", fam.Name)
	}
}

// labelSignature renders labels minus le, sorted, for grouping.
func labelSignature(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != "le" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + labels[k]
	}
	return strings.Join(parts, ",")
}

func leValue(t *testing.T, le string) float64 {
	t.Helper()
	if le == "+Inf" {
		return 1e308
	}
	v, err := strconv.ParseFloat(le, 64)
	if err != nil {
		t.Fatalf("bad le %q: %v", le, err)
	}
	return v
}

// TestRequestIDPropagation checks the trace ID contract on the sync
// path: a valid client X-Request-Id is echoed back, an invalid one is
// replaced with a generated ID.
func TestRequestIDPropagation(t *testing.T) {
	ts := newTestServer(t, engine.Options{Workers: 2})

	body := `{"pattern": {"offsets": [3, 1, 4, 1]}, "agu": {"registers": 2, "modifyRange": 1}}`
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/allocate", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "trace-sync-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "trace-sync-42" {
		t.Errorf("echoed trace ID %q, want trace-sync-42", got)
	}

	req, err = http.NewRequest(http.MethodPost, ts.URL+"/v1/allocate", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "has spaces\tand control")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	got := resp.Header.Get("X-Request-Id")
	if !strings.HasPrefix(got, "r-") {
		t.Errorf("invalid client ID should be replaced with a generated r-… ID, got %q", got)
	}
}

// TestDebugRequestsRoundTrip drives a traced request through the full
// engine path and reads its phase breakdown back from
// /debug/requests: the trace ID matches the response header, the
// expected engine phases are present and every span nests within the
// request duration.
func TestDebugRequestsRoundTrip(t *testing.T) {
	ts := newTestServer(t, engine.Options{Workers: 2})

	// K=1 against a 2-virtual-register pattern forces the merge phase
	// into the trace; K=2 would satisfy the budget without merging.
	body := `{"pattern": {"offsets": [1, 0, 2, -1, 1, 0, -2]}, "agu": {"registers": 1, "modifyRange": 1}}`
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/allocate", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "trace-debug-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("allocate status %d", resp.StatusCode)
	}

	var dbg debugRequestsJSON
	getJSON(t, ts.URL+"/debug/requests?min_ms=0", &dbg)
	if dbg.Count != len(dbg.Traces) {
		t.Fatalf("count %d != %d traces", dbg.Count, len(dbg.Traces))
	}
	var tr *obs.TraceSnapshot
	for _, s := range dbg.Traces {
		if s.ID == "trace-debug-1" {
			tr = s
			break
		}
	}
	if tr == nil {
		t.Fatalf("trace-debug-1 not in ring (%d traces)", len(dbg.Traces))
	}
	if tr.Route != "/v1/allocate" || tr.Status != http.StatusOK {
		t.Errorf("trace labeled %s/%d, want /v1/allocate/200", tr.Route, tr.Status)
	}
	if len(tr.Spans) == 0 {
		t.Fatal("trace has no spans")
	}
	seen := map[string]bool{}
	for _, sp := range tr.Spans {
		seen[sp.Name] = true
		if sp.StartMicros < 0 || sp.DurMicros < 0 {
			t.Errorf("span %s has negative timing: start=%d dur=%d", sp.Name, sp.StartMicros, sp.DurMicros)
		}
		// 1ms slack: span ends are recorded before the middleware
		// takes the trace-level end timestamp, so this should hold
		// exactly, but scheduling noise gets a margin.
		if sp.StartMicros+sp.DurMicros > tr.DurationMicros+1000 {
			t.Errorf("span %s [%d+%d] overruns trace duration %dµs", sp.Name, sp.StartMicros, sp.DurMicros, tr.DurationMicros)
		}
	}
	// A cold-cache pattern solve passes through these phases.
	for _, want := range []string{"key.build", "cache.lookup", "solve", "cover", "merge", "result.rewrite"} {
		if !seen[want] {
			t.Errorf("phase %s missing from trace (got %v)", want, seen)
		}
	}

	// The min_ms filter hides everything at an absurd threshold.
	getJSON(t, ts.URL+"/debug/requests?min_ms=60000", &dbg)
	if dbg.Count != 0 {
		t.Errorf("min_ms=60000 returned %d traces", dbg.Count)
	}

	// Verb and parameter validation.
	if status := do(t, ts.URL+"/debug/requests", `{}`, nil); status != http.StatusMethodNotAllowed {
		t.Errorf("POST /debug/requests: status %d", status)
	}
	resp, err = http.Get(ts.URL + "/debug/requests?min_ms=banana")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad min_ms: status %d", resp.StatusCode)
	}
}

// TestBatchTraceKeepsHTTPSpans: a cold 16-job batch records enough
// engine spans to fill the trace, and its retained trace still holds
// the handler's http.decode and http.encode spans.
func TestBatchTraceKeepsHTTPSpans(t *testing.T) {
	ts := newTestServer(t, engine.Options{Workers: 2})
	rng := rand.New(rand.NewSource(7))
	jobs := make([]string, 16)
	for i := range jobs {
		offs := make([]string, 32+rng.Intn(33))
		for j := range offs {
			offs[j] = strconv.Itoa(rng.Intn(17) - 8)
		}
		jobs[i] = `{"pattern":{"offsets":[` + strings.Join(offs, ",") + `]},"agu":{"registers":2,"modifyRange":1}}`
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/batch", strings.NewReader(`{"jobs":[`+strings.Join(jobs, ",")+`]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "trace-batch-16")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Drain the body so the connection can be reused.
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}

	// The middleware retains the trace after the response is written,
	// so poll for it.
	var tr *obs.TraceSnapshot
	for deadline := time.Now().Add(5 * time.Second); tr == nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("batch trace not retained")
		}
		var dbg debugRequestsJSON
		getJSON(t, ts.URL+"/debug/requests", &dbg)
		for _, s := range dbg.Traces {
			if s.ID == "trace-batch-16" {
				tr = s
			}
		}
	}
	if tr.DroppedSpans == 0 {
		t.Fatalf("batch recorded %d spans, under the cap of %d; the test no longer fills the trace", len(tr.Spans), obs.MaxSpans)
	}
	spans := map[string]obs.SpanSnapshot{}
	last := int64(0)
	for _, sp := range tr.Spans {
		spans[sp.Name] = sp
		if sp.Name != "http.encode" {
			last = max(last, sp.StartMicros+sp.DurMicros)
		}
	}
	dec, okDec := spans["http.decode"]
	enc, okEnc := spans["http.encode"]
	if !okDec || !okEnc {
		t.Fatalf("http spans missing: decode %v, encode %v (%d spans, %d dropped)", okDec, okEnc, len(tr.Spans), tr.DroppedSpans)
	}
	// The encode is timed from after the fan-out, not from its slot's
	// reservation.
	if enc.StartMicros < dec.StartMicros+dec.DurMicros || enc.StartMicros+1000 < last {
		t.Errorf("http.encode starts at %dµs; decode ends at %dµs, the last other span at %dµs",
			enc.StartMicros, dec.StartMicros+dec.DurMicros, last)
	}
}

// TestAsyncJobTraceID checks trace propagation across the async
// boundary: the submitting request's trace ID lands on the job
// record, and the job's own execution trace (route "job") reaches the
// debug ring under the same ID.
func TestAsyncJobTraceID(t *testing.T) {
	ts := newTestServer(t, engine.Options{Workers: 2})

	body := `{"pattern": {"offsets": [5, 0, 3, -2]}, "agu": {"registers": 2, "modifyRange": 1}}`
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "trace-async-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var sub api.SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}

	st := waitForJobDone(t, ts, sub.ID)
	if st.TraceID != "trace-async-7" {
		t.Errorf("job record trace ID %q, want trace-async-7", st.TraceID)
	}

	var dbg debugRequestsJSON
	getJSON(t, ts.URL+"/debug/requests?min_ms=0", &dbg)
	found := false
	for _, s := range dbg.Traces {
		if s.ID == "trace-async-7" && s.Route == "job" {
			found = true
			if len(s.Spans) == 0 {
				t.Error("async job trace has no spans")
			}
		}
	}
	if !found {
		t.Errorf("no route=job trace for trace-async-7 in ring (%d traces)", len(dbg.Traces))
	}
}

// TestAsyncCanceledJobTraceKeepsSpans cancels a running traced job
// whose solve is still stalled on a worker: the runner returns only
// once the worker has unwound, so the debug ring keeps the job's spans
// — its solve span noted aborted — and the error (under -race, a
// worker still recording while the runner snapshots is a data race).
func TestAsyncCanceledJobTraceKeepsSpans(t *testing.T) {
	inj, err := faults.Parse("delay=300ms")
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServerWith(t, engine.Options{Workers: 1, CacheSize: -1, Faults: inj}, serverOptions{version: "test"})

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs",
		strings.NewReader(`{"pattern": {"offsets": [5, 0, 3, -2]}, "agu": {"registers": 2, "modifyRange": 1}}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "trace-cancel-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var sub api.SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var st api.JobStatus
		getJSON(t, ts.URL+"/v1/jobs/"+sub.ID, &st)
		if st.State == "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	if status := doMethod(t, http.MethodDelete, ts.URL+"/v1/jobs/"+sub.ID, nil); status != http.StatusOK {
		t.Fatalf("DELETE status %d", status)
	}
	if st := waitForJobDone(t, ts, sub.ID); st.State != "canceled" {
		t.Fatalf("state %s, want canceled", st.State)
	}

	var dbg debugRequestsJSON
	getJSON(t, ts.URL+"/debug/requests?min_ms=0", &dbg)
	for _, s := range dbg.Traces {
		if s.ID == "trace-cancel-1" && s.Route == "job" {
			checkAbortedSolve(t, s)
			return
		}
	}
	t.Fatalf("no route=job trace for trace-cancel-1 in ring (%d traces)", len(dbg.Traces))
}

// checkAbortedSolve asserts that a canceled request's retained trace
// kept its error text and its spans, among them a solve span noted
// aborted.
func checkAbortedSolve(t *testing.T, tr *obs.TraceSnapshot) {
	t.Helper()
	if tr.Error == "" {
		t.Errorf("trace %s (route %s) has no error text", tr.ID, tr.Route)
	}
	for _, sp := range tr.Spans {
		if sp.Name == "solve" && sp.Outcome == "aborted" {
			return
		}
	}
	t.Errorf("trace %s (route %s): no solve span noted aborted among its %d spans %+v", tr.ID, tr.Route, len(tr.Spans), tr.Spans)
}

// waitForJobDone polls an async job to a terminal state.
func waitForJobDone(t *testing.T, ts *httptest.Server, id string) api.JobStatus {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		var st api.JobStatus
		getJSON(t, ts.URL+"/v1/jobs/"+id, &st)
		switch st.State {
		case "done", "failed", "timeout", "canceled":
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return api.JobStatus{}
}

// getJSON GETs a URL and decodes the body.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// TestRouteNormalization pins the bounded label set.
func TestRouteNormalization(t *testing.T) {
	cases := map[string]string{
		"/v1/allocate":       "/v1/allocate",
		"/v1/jobs":           "/v1/jobs",
		"/v1/jobs/abc123":    "/v1/jobs/{id}",
		"/v1/jobs/a/b":       "/v1/jobs/{id}",
		"/metrics":           "/metrics",
		"/debug/requests":    "/debug/requests",
		"/nonexistent":       "other",
		"/v1/jobsandstorage": "other",
	}
	for path, want := range cases {
		if got := api.RouteOf(path); got != want {
			t.Errorf("api.RouteOf(%q) = %q, want %q", path, got, want)
		}
	}
}

// TestMethodRejectionsCounted pins the satellite fix: a rejected verb
// is counted under its real status (405), which the old per-handler
// pre-validation counters could not see.
func TestMethodRejectionsCounted(t *testing.T) {
	ts := newTestServer(t, engine.Options{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/allocate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status %d", resp.StatusCode)
	}
	fams := scrapeFamilies(t, ts)
	fam := fams["rcaserve_http_route_requests_total"]
	if fam == nil {
		t.Fatal("no route counter family")
	}
	found := false
	for _, s := range fam.Samples {
		if s.Labels["route"] == "/v1/allocate" && s.Labels["status"] == "405" && s.Value >= 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("405 on /v1/allocate not counted by route+status")
	}
}
