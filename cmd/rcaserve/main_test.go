package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"dspaddr/internal/api"
	"dspaddr/internal/engine"
)

// newTestServer spins up the handler over a fresh engine; the cleanup
// closes the pool.
func newTestServer(t *testing.T, opts engine.Options) *httptest.Server {
	t.Helper()
	return newTestServerWith(t, opts, serverOptions{version: "test"})
}

// newTestServerWith also takes server options, for tests that tune
// the async queue, store or executor.
func newTestServerWith(t *testing.T, opts engine.Options, sopts serverOptions) *httptest.Server {
	t.Helper()
	// Tests get a capture-everything trace ring (traceMin < 0) so any
	// request's phase breakdown can be asserted via /debug/requests.
	if sopts.obs == nil {
		sopts.obs = newObservability(nil, -1, 0)
	}
	eng := engine.New(opts)
	s := newServer(eng, sopts)
	ts := httptest.NewServer(s.handler())
	t.Cleanup(func() {
		ts.Close()
		s.close()
		eng.Close()
	})
	return ts
}

// TestGoldenNodeResponses pins the bytes a node answers for the paper
// example, with and without its report, and a loop job (elapsed time
// zeroed).
func TestGoldenNodeResponses(t *testing.T) {
	for _, tc := range []struct {
		golden string
		job    api.Job
	}{
		{"../../internal/api/testdata/paper_example_response.json", api.Job{
			Pattern: &api.Pattern{Offsets: []int{1, 0, 2, -1, 1, 0, -2}},
			AGU:     api.AGU{Registers: 2, ModifyRange: 1},
		}},
		{"../../internal/api/testdata/paper_example_report_response.json", api.Job{
			Pattern: &api.Pattern{Offsets: []int{1, 0, 2, -1, 1, 0, -2}},
			AGU:     api.AGU{Registers: 2, ModifyRange: 1},
			Report:  true,
		}},
		{"testdata/loop_example_response.json", api.Job{
			Loop:     "for (i = 0; i <= N; i++) { y[i] = x[i] + x[i-1]; }",
			Bindings: map[string]int{"N": 10, "B": -3},
			AGU:      api.AGU{Registers: 3, ModifyRange: 2},
		}},
	} {
		want, err := os.ReadFile(tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		// A fresh engine per case, so every answer is a cold solve.
		eng := engine.New(engine.Options{Workers: 1})
		s := newServer(eng, serverOptions{version: "golden"})
		resp, err := s.runJob(context.Background(), tc.job)
		s.close()
		eng.Close()
		if err != nil {
			t.Fatal(err)
		}
		for i := range resp.Results {
			resp.Results[i].ElapsedMicros = 0
		}
		rec := httptest.NewRecorder()
		api.WriteJSON(rec, http.StatusOK, resp)
		if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
			t.Errorf("%s: bytes changed\n got: %s\nwant: %s", tc.golden, got, want)
		}
	}
}

// do posts a body and decodes the JSON response into out, returning
// the status code.
func do(t *testing.T, url, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
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

// TestAllocatePattern exercises the happy path: the paper's example
// pattern needs K~ = 2 virtual registers and is zero-cost at K=2, M=1
// (Section 2 of the paper).
func TestAllocatePattern(t *testing.T) {
	ts := newTestServer(t, engine.Options{Workers: 2})
	var resp api.JobResponse
	status := do(t, ts.URL+"/v1/allocate", `{
		"pattern": {"offsets": [1, 0, 2, -1, 1, 0, -2]},
		"agu": {"registers": 2, "modifyRange": 1}
	}`, &resp)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if len(resp.Results) != 1 {
		t.Fatalf("got %d results, want 1", len(resp.Results))
	}
	r := resp.Results[0]
	if r.Cost != 0 || r.VirtualRegisters != 2 || r.Merged || r.RegistersUsed != 2 {
		t.Fatalf("paper example allocation off: %+v", r)
	}
}

// TestAllocateLoopDSL feeds mini-C loop source through the frontend:
// one result per referenced array, with the K registers shared across
// arrays exactly as dspaddr.AllocateLoop distributes them.
func TestAllocateLoopDSL(t *testing.T) {
	ts := newTestServer(t, engine.Options{Workers: 2})
	var resp api.JobResponse
	status := do(t, ts.URL+"/v1/allocate", `{
		"loop": "for (i = 0; i <= N; i++) { C[i] = A[i+1] + B[i]; B[i+2]; }",
		"bindings": {"N": 100},
		"agu": {"registers": 4, "modifyRange": 1}
	}`, &resp)
	if status != http.StatusOK {
		t.Fatalf("status %d: %+v", status, resp)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results, want 3 (arrays A, B, C)", len(resp.Results))
	}
	arrays := map[string]bool{}
	total := 0
	globals := map[int]bool{}
	for _, r := range resp.Results {
		arrays[r.Array] = true
		total += r.RegistersUsed
		if len(r.GlobalRegisters) != r.RegistersUsed {
			t.Errorf("array %s: %d global registers for %d used", r.Array, len(r.GlobalRegisters), r.RegistersUsed)
		}
		for _, g := range r.GlobalRegisters {
			if globals[g] {
				t.Errorf("global register %d assigned to two arrays", g)
			}
			globals[g] = true
		}
	}
	for _, want := range []string{"A", "B", "C"} {
		if !arrays[want] {
			t.Errorf("missing result for array %s (got %v)", want, arrays)
		}
	}
	if total > 4 {
		t.Errorf("arrays use %d registers in total, budget is 4", total)
	}
}

// TestAllocateLoopBudgetShared pins the fix for per-array
// full-budget expansion: a 3-array loop on a 2-register AGU must be
// rejected (each array needs a private register), not allocated with
// 2 registers per array.
func TestAllocateLoopBudgetShared(t *testing.T) {
	ts := newTestServer(t, engine.Options{Workers: 2})
	var resp api.JobResponse
	status := do(t, ts.URL+"/v1/allocate", `{
		"loop": "for (i = 0; i <= 9; i++) { A[i]; B[i]; C[i]; }",
		"agu": {"registers": 2, "modifyRange": 1}
	}`, &resp)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422 (3 arrays cannot share 2 registers)", status)
	}
	if !strings.Contains(resp.Error, "3 arrays") {
		t.Errorf("error %q does not explain the register shortfall", resp.Error)
	}
}

// TestMalformedRequests covers the 400 paths: invalid JSON, unknown
// fields, trailing garbage, empty job, both pattern and loop set.
func TestMalformedRequests(t *testing.T) {
	ts := newTestServer(t, engine.Options{Workers: 1})
	cases := []struct {
		name, body string
		wantStatus int
	}{
		{"invalid JSON", `{"pattern": [`, http.StatusBadRequest},
		{"unknown field", `{"patern": {"offsets": [1]}, "agu": {"registers": 1}}`, http.StatusBadRequest},
		{"trailing garbage", `{"pattern": {"offsets": [1]}, "agu": {"registers": 1, "modifyRange": 1}} extra`, http.StatusBadRequest},
		{"neither pattern nor loop", `{"agu": {"registers": 1, "modifyRange": 1}}`, http.StatusUnprocessableEntity},
		{"both pattern and loop", `{"pattern": {"offsets": [1]}, "loop": "for", "agu": {"registers": 1, "modifyRange": 1}}`, http.StatusUnprocessableEntity},
		{"bad loop source", `{"loop": "while (1) {}", "agu": {"registers": 1, "modifyRange": 1}}`, http.StatusUnprocessableEntity},
		{"zero registers", `{"pattern": {"offsets": [1, 2]}, "agu": {"registers": 0, "modifyRange": 1}}`, http.StatusUnprocessableEntity},
		{"bad strategy", `{"pattern": {"offsets": [1, 2]}, "agu": {"registers": 1, "modifyRange": 1}, "strategy": "quantum"}`, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if status := do(t, ts.URL+"/v1/allocate", tc.body, nil); status != tc.wantStatus {
				t.Errorf("status %d, want %d", status, tc.wantStatus)
			}
		})
	}
}

// TestMalformedBodyErrorText pins the exact 400 body each POST route
// answers for bodies encoding/json refuses, including bodies the
// one-pass reader declines before encoding/json sees them. The
// messages are in their wire form.
func TestMalformedBodyErrorText(t *testing.T) {
	ts := newTestServer(t, engine.Options{Workers: 1})
	const (
		unexpectedEOF = `unexpected EOF`
		trailing      = `trailing data after JSON body`
		unknownJobs   = `json: unknown field \"jobs\"`
		bad1e3        = `json: cannot unmarshal number 1e3 into Go struct field AGU.jobs.agu.registers of type int`
		leadingZero   = `invalid character '1' after array element`
		badBool       = `json: cannot unmarshal bool into Go struct field AGU.jobs.agu.registers of type int`
	)
	for _, tc := range []struct {
		body                  string
		batch, allocate, jobs string
	}{
		{`{"pattern": [`, unexpectedEOF, unexpectedEOF, unexpectedEOF},
		{"", `EOF`, `EOF`, `EOF`},
		{`{"pattern":{"offsets":[1]},"agu":{"registers":1,"modifyRange":1},"zzz":1}`,
			`json: unknown field \"pattern\"`, `json: unknown field \"zzz\"`, `json: unknown field \"zzz\"`},
		{`{"jobs":[]} {}`, trailing, unknownJobs, trailing},
		{`{"jobs":[{"loop":"x"}],"jobs":null} x`, trailing, unknownJobs, trailing},
		{`{"jobs":[{"agu":{"registers":1e3}}]}`, bad1e3, unknownJobs, bad1e3},
		{`{"jobs":[{"pattern":{"offsets":[1,01]}}]}`, leadingZero, leadingZero, leadingZero},
		{`{"pattern":{"offsets":[99999999999999999999]}}`, `json: unknown field \"pattern\"`,
			`json: cannot unmarshal number 99999999999999999999 into Go struct field Pattern.pattern.offsets of type int`,
			`json: cannot unmarshal number 99999999999999999999 into Go struct field Pattern.Job.pattern.offsets of type int`},
		{`{"priority":1.5,"jobs":[{"wrap":"yes"}]}`, `json: unknown field \"priority\"`, `json: unknown field \"priority\"`,
			`json: cannot unmarshal number 1.5 into Go struct field Submit.priority of type int`},
		{"{\"loop\":\"a\x01\"}", `invalid character '\\x01' in string literal`,
			`invalid character '\\x01' in string literal`, `invalid character '\\x01' in string literal`},
		{"\xef\xbb\xbf{}", `invalid character 'ï' looking for beginning of value`,
			`invalid character 'ï' looking for beginning of value`, `invalid character 'ï' looking for beginning of value`},
		{`{"Jobs":[{"Pattern":{"Offsets":[1]},"AGU":{"registers":true}}]}`, badBool, `json: unknown field \"Jobs\"`, badBool},
	} {
		for _, rt := range []struct{ route, msg string }{
			{"/v1/batch", tc.batch}, {"/v1/allocate", tc.allocate}, {"/v1/jobs", tc.jobs},
		} {
			resp, err := http.Post(ts.URL+rt.route, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			want := `{"error":"bad request body: ` + rt.msg + `"}` + "\n"
			if resp.StatusCode != http.StatusBadRequest || string(got) != want {
				t.Errorf("%s %q: %d %s\nwant 400 %s", rt.route, tc.body, resp.StatusCode, got, want)
			}
		}
	}
}

// TestMethodNotAllowed checks verbs are enforced per endpoint.
func TestMethodNotAllowed(t *testing.T) {
	ts := newTestServer(t, engine.Options{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/allocate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/allocate: status %d", resp.StatusCode)
	}
	if status := do(t, ts.URL+"/v1/stats", `{}`, nil); status != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/stats: status %d", status)
	}
}

// TestAllocateTimeout configures a vanishing job deadline and checks
// the 504 path.
func TestAllocateTimeout(t *testing.T) {
	ts := newTestServer(t, engine.Options{Workers: 1, JobTimeout: time.Nanosecond})
	var resp api.JobResponse
	status := do(t, ts.URL+"/v1/allocate", `{
		"pattern": {"offsets": [1, 0, 2, -1, 1, 0, -2]},
		"agu": {"registers": 1, "modifyRange": 1}
	}`, &resp)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", status)
	}
	if !strings.Contains(resp.Error, "timed out") {
		t.Fatalf("error %q does not mention the timeout", resp.Error)
	}
}

// TestBatchWithCacheHits posts a batch of repeated patterns and checks
// both the per-result cacheHit flags and the /v1/stats counters.
func TestBatchWithCacheHits(t *testing.T) {
	ts := newTestServer(t, engine.Options{Workers: 8})

	job := `{"pattern": {"offsets": [1, 0, 2, -1]}, "agu": {"registers": 2, "modifyRange": 1}}`
	jobs := make([]string, 12)
	for i := range jobs {
		jobs[i] = job
	}
	var resp api.BatchResponse
	status := do(t, ts.URL+"/v1/batch", `{"jobs": [`+strings.Join(jobs, ",")+`]}`, &resp)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if len(resp.Results) != len(jobs) {
		t.Fatalf("got %d results, want %d", len(resp.Results), len(jobs))
	}
	hits := 0
	for i, jr := range resp.Results {
		if jr.Error != "" {
			t.Fatalf("job %d failed: %s", i, jr.Error)
		}
		if len(jr.Results) != 1 {
			t.Fatalf("job %d: %d results", i, len(jr.Results))
		}
		if jr.Results[0].CacheHit {
			hits++
		}
		if jr.Results[0].Cost != resp.Results[0].Results[0].Cost {
			t.Fatalf("job %d cost differs from job 0", i)
		}
	}
	if hits == 0 {
		t.Fatal("identical batch jobs produced no cache hits")
	}

	stats := getStats(t, ts)
	if stats.CacheHits == 0 {
		t.Fatalf("stats report no cache hits: %+v", stats)
	}
	if stats.CacheMisses == 0 || stats.Jobs != uint64(len(jobs)) {
		t.Fatalf("stats off: %+v", stats)
	}
	if stats.Workers < 8 {
		t.Fatalf("stats.Workers = %d, want >= 8", stats.Workers)
	}
	if stats.CacheEntries < 1 || stats.CacheCapacity < stats.CacheEntries {
		t.Fatalf("cache occupancy/capacity off: entries=%d capacity=%d", stats.CacheEntries, stats.CacheCapacity)
	}
	if stats.CacheShards < 1 || stats.CacheShards&(stats.CacheShards-1) != 0 {
		t.Fatalf("cache shard count %d is not a positive power of two", stats.CacheShards)
	}
}

// TestBatchMixedJobs mixes good, bad and loop jobs in one batch and
// checks failures stay per-job, and that every entry is, byte for
// byte, what /v1/allocate answers for the same job (elapsed time and
// the cache flag aside).
func TestBatchMixedJobs(t *testing.T) {
	ts := newTestServer(t, engine.Options{Workers: 4})
	jobs := []string{
		`{"pattern": {"offsets": [1, 0, 2]}, "agu": {"registers": 1, "modifyRange": 1}}`,
		`{"agu": {"registers": 1, "modifyRange": 1}}`,
		`{"loop": "for (i = 0; i <= 9; i++) { A[i]; A[i+1]; }", "agu": {"registers": 1, "modifyRange": 1}}`,
		`{"loop": "for (i = 0; i <= N; i++) { A[i]; }", "agu": {"registers": 1, "modifyRange": 1}}`,
		`{"pattern": {"array": "B", "offsets": [11, 10, 12]}, "agu": {"registers": 1, "modifyRange": 1}, "report": true}`,
	}
	var body json.RawMessage
	if status := do(t, ts.URL+"/v1/batch", `{"jobs": [`+strings.Join(jobs, ",\n")+`]}`, &body); status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp api.BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(jobs) {
		t.Fatalf("got %d results", len(resp.Results))
	}
	if resp.Results[0].Error != "" || len(resp.Results[0].Results) != 1 {
		t.Errorf("job 0 should succeed: %+v", resp.Results[0])
	}
	if resp.Results[1].Error == "" {
		t.Error("job 1 (no pattern) should fail")
	}
	if resp.Results[2].Error != "" || len(resp.Results[2].Results) != 1 {
		t.Errorf("job 2 (loop) should succeed with one array: %+v", resp.Results[2])
	}
	if resp.Results[3].Error == "" {
		t.Error("job 3 (unbound N) should fail to parse")
	}
	if r := resp.Results[4]; r.Error != "" || len(r.Results) != 1 || r.Results[0].Array != "B" || r.Results[0].Report == "" {
		t.Errorf("job 4 (translated twin) should succeed as array B with a report: %+v", r)
	}

	var raw struct{ Results []json.RawMessage }
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	varying := regexp.MustCompile(`"(elapsedMicros|cacheHit)":[^,}]*`)
	for i, job := range jobs {
		var single json.RawMessage
		status := do(t, ts.URL+"/v1/allocate", job, &single)
		if wantErr := resp.Results[i].Error != ""; wantErr != (status != http.StatusOK) {
			t.Errorf("job %d: /v1/allocate status %d, batch error %q", i, status, resp.Results[i].Error)
		}
		got := varying.ReplaceAll(raw.Results[i], []byte(`"$1":0`))
		want := varying.ReplaceAll(single, []byte(`"$1":0`))
		if !bytes.Equal(got, want) {
			t.Errorf("job %d: batch entry\n%s\n/v1/allocate\n%s", i, got, want)
		}
	}
}

// TestEmptyBatch checks the explicit 400 for a no-job batch.
func TestEmptyBatch(t *testing.T) {
	ts := newTestServer(t, engine.Options{Workers: 1})
	if status := do(t, ts.URL+"/v1/batch", `{"jobs": []}`, nil); status != http.StatusBadRequest {
		t.Errorf("status %d, want 400", status)
	}
}

// TestHealthz checks the liveness probe: GET and HEAD succeed, the
// body leads with "ok" and names the build, and every other method is
// rejected — the probe endpoint enforces verbs like the rest of the
// API.
func TestHealthz(t *testing.T) {
	ts := newTestServer(t, engine.Options{Workers: 1})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !strings.HasPrefix(string(body), "ok\n") {
		t.Fatalf("body %q does not lead with ok", body)
	}
	if !strings.Contains(string(body), "rcaserve test") {
		t.Fatalf("body %q does not name the build", body)
	}

	resp, err = http.Head(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HEAD status %d", resp.StatusCode)
	}

	for _, method := range []string{http.MethodPost, http.MethodDelete, http.MethodPut} {
		req, err := http.NewRequest(method, ts.URL+"/healthz", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s /healthz: status %d, want 405", method, resp.StatusCode)
		}
	}
}

// TestVersionSurfaced checks the build identity reaches /v1/stats.
func TestVersionSurfaced(t *testing.T) {
	ts := newTestServer(t, engine.Options{Workers: 1})
	stats := getStats(t, ts)
	if stats.Version != "test" {
		t.Fatalf("stats version %q", stats.Version)
	}
}

func getStats(t *testing.T, ts *httptest.Server) api.Stats {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	var out api.Stats
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}
